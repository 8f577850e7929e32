"""Platform-charter petitions and the AI tool marketplace."""

import pytest

from repro.errors import ContractError


@pytest.fixture
def world(platform):
    platform.register_participant("founder", role="publisher")
    for index in range(4):
        platform.register_participant(f"checker-{index}", role="checker")
    platform.register_participant("dev", role="developer")
    platform.register_participant("civilian", role="consumer")
    return platform


# -- governance ---------------------------------------------------------------


def test_petition_review_finalize_approved(world):
    world.petition_platform("founder", "new-wire", "independent local news", quorum=3)
    for index in range(3):
        world.review_petition(f"checker-{index}", "new-wire", approve=True)
    assert world.finalize_petition("new-wire") == "approved"
    assert world.is_chartered("new-wire")


def test_petition_rejected_by_quorum(world):
    world.petition_platform("founder", "spam-wire", "definitely not spam", quorum=2)
    world.review_petition("checker-0", "spam-wire", approve=False)
    world.review_petition("checker-1", "spam-wire", approve=False)
    assert world.finalize_petition("spam-wire") == "rejected"
    assert not world.is_chartered("spam-wire")


def test_finalize_before_quorum_fails(world):
    world.petition_platform("founder", "early-wire", "charter", quorum=3)
    world.review_petition("checker-0", "early-wire", approve=True)
    with pytest.raises(ContractError, match="quorum not yet reached"):
        world.finalize_petition("early-wire")


def test_only_checkers_review(world):
    world.petition_platform("founder", "wire-x", "charter", quorum=1)
    with pytest.raises(ContractError, match="only checkers"):
        world.review_petition("civilian", "wire-x", approve=True)


def test_double_review_rejected(world):
    world.petition_platform("founder", "wire-y", "charter", quorum=2)
    world.review_petition("checker-0", "wire-y", approve=True)
    with pytest.raises(ContractError, match="already reviewed"):
        world.review_petition("checker-0", "wire-y", approve=True)


def test_consumer_cannot_petition(world):
    with pytest.raises(ContractError, match="may not petition"):
        world.petition_platform("civilian", "pirate-wire", "charter")


def test_duplicate_petition_rejected(world):
    world.petition_platform("founder", "wire-z", "charter", quorum=1)
    with pytest.raises(ContractError, match="already exists"):
        world.petition_platform("founder", "wire-z", "charter two")


def test_unchartered_platform_query(world):
    assert not world.is_chartered("never-petitioned")


# -- tool marketplace ----------------------------------------------------------


def _register_tool(world, tool_id="detector-1", fee=0.5, stake=10.0):
    return world.chain.invoke(
        world.account("dev"), "toolmarket", "register_tool",
        {"tool_id": tool_id, "description": "tfidf ensemble", "fee": fee, "stake": stake},
    )


def test_tool_registration_requires_developer(world):
    with pytest.raises(ContractError, match="verified developers"):
        world.chain.invoke(
            world.account("civilian"), "toolmarket", "register_tool",
            {"tool_id": "t", "description": "d", "fee": 0.1, "stake": 1.0},
        )


def test_invocation_accrues_royalties(world):
    _register_tool(world)
    for index in range(3):
        world.chain.invoke(
            world.governance, "toolmarket", "record_invocation",
            {"tool_id": "detector-1", "article_id": f"a-{index}", "score": 0.7},
        )
    record = world.chain.query("toolmarket", "get_tool", {"tool_id": "detector-1"})
    assert record["calls"] == 3
    assert record["royalties_accrued"] == pytest.approx(1.5)


def test_outcome_settlement_tracks_accuracy(world):
    _register_tool(world)
    cases = [("a-0", 0.9, True), ("a-1", 0.2, False), ("a-2", 0.8, False)]
    for article_id, score, final_fake in cases:
        world.chain.invoke(world.governance, "toolmarket", "record_invocation",
                           {"tool_id": "detector-1", "article_id": article_id, "score": score})
        world.chain.invoke(world.governance, "toolmarket", "record_outcome",
                           {"tool_id": "detector-1", "article_id": article_id,
                            "final_fake": final_fake})
    record = world.chain.query("toolmarket", "get_tool", {"tool_id": "detector-1"})
    assert record["calls"] == 3 and record["correct"] == 2


def test_double_settlement_rejected(world):
    _register_tool(world)
    world.chain.invoke(world.governance, "toolmarket", "record_invocation",
                       {"tool_id": "detector-1", "article_id": "a-0", "score": 0.9})
    world.chain.invoke(world.governance, "toolmarket", "record_outcome",
                       {"tool_id": "detector-1", "article_id": "a-0", "final_fake": True})
    with pytest.raises(ContractError, match="already recorded"):
        world.chain.invoke(world.governance, "toolmarket", "record_outcome",
                           {"tool_id": "detector-1", "article_id": "a-0", "final_fake": True})


def test_unreliable_tool_slashed_and_delisted(world):
    _register_tool(world, tool_id="junk", stake=25.0)
    for index in range(12):
        world.chain.invoke(world.governance, "toolmarket", "record_invocation",
                           {"tool_id": "junk", "article_id": f"a-{index}", "score": 0.9})
        world.chain.invoke(world.governance, "toolmarket", "record_outcome",
                           {"tool_id": "junk", "article_id": f"a-{index}",
                            "final_fake": index % 4 == 0})  # 25% accuracy
    receipt = world.chain.invoke(world.governance, "toolmarket", "slash_if_unreliable",
                                 {"tool_id": "junk"})
    assert receipt.return_value == pytest.approx(25.0)
    record = world.chain.query("toolmarket", "get_tool", {"tool_id": "junk"})
    assert not record["listed"] and record["stake"] == 0.0
    with pytest.raises(ContractError, match="delisted"):
        world.chain.invoke(world.governance, "toolmarket", "record_invocation",
                           {"tool_id": "junk", "article_id": "a-99", "score": 0.5})


def test_slash_refused_for_accurate_tool(world):
    _register_tool(world, tool_id="good")
    for index in range(12):
        world.chain.invoke(world.governance, "toolmarket", "record_invocation",
                           {"tool_id": "good", "article_id": f"a-{index}", "score": 0.9})
        world.chain.invoke(world.governance, "toolmarket", "record_outcome",
                           {"tool_id": "good", "article_id": f"a-{index}", "final_fake": True})
    with pytest.raises(ContractError, match="above the"):
        world.chain.invoke(world.governance, "toolmarket", "slash_if_unreliable",
                           {"tool_id": "good"})


def test_slash_respects_warmup(world):
    _register_tool(world, tool_id="fresh")
    world.chain.invoke(world.governance, "toolmarket", "record_invocation",
                       {"tool_id": "fresh", "article_id": "a-0", "score": 0.9})
    with pytest.raises(ContractError, match="warm-up"):
        world.chain.invoke(world.governance, "toolmarket", "slash_if_unreliable",
                           {"tool_id": "fresh"})
