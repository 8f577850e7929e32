"""Expert mining from the ledger; ecosystem economy and token contract."""

import random

import pytest

from repro.chain import LocalChain
from repro.core import (
    EcosystemSimulator,
    ExpertFinder,
    TokenContract,
    TrustingNewsPlatform,
    build_supply_chain_graph,
)
from repro.corpus import CorpusGenerator
from repro.errors import ContractError
from repro.social.cascade import ShareEvent


# -- expert identification ------------------------------------------------------


@pytest.fixture
def expert_world():
    """Ledger with one planted expert, one bot, one casual user in 'health'.
    Every record carries its text, so every link is the one the ledger
    fold derives."""
    platform = TrustingNewsPlatform(seed=6)
    gen = CorpusGenerator(seed=6)
    facts = {f"f-{index}": gen.factual(topic="health") for index in (*range(6), 9)}
    for fact_id, fact in facts.items():
        platform.seed_fact(fact_id, fact.text, "public-record", "health")
    for name in ("expert", "bot", "casual"):
        platform.register_participant(name, role="creator", verified=False)

    # Expert: six verbatim reports of facts.
    for index in range(6):
        platform.report_external("expert", f"e-{index}", facts[f"f-{index}"].text, "health",
                                 source="public-record")
    # Bot: six heavily modified derivations of the expert's work.
    for index in range(6):
        fake = gen.insertion_fake(facts[f"f-{index}"], "bot", 1.0,
                                  n_insertions=12).with_id(f"b-{index}")
        share = ShareEvent(time=1.0, round_index=0, agent_id="bot", source_agent_id="expert",
                           article_id=fake.article_id, parent_article_id=f"e-{index}",
                           op="insert")
        platform.ingest_share(share, fake, topic="health")
    # Casual: one good article (below min_articles).
    platform.report_external("casual", "c-0", facts["f-9"].text, "health", source="public-record")
    return platform.chain, {name: platform.account(name) for name in ("expert", "bot", "casual")}


def test_expert_ranked_first(expert_world):
    chain, accounts = expert_world
    finder = ExpertFinder(build_supply_chain_graph(chain.ledger))
    scores = finder.scores("health")
    assert scores[0].author == accounts["expert"].address
    assert scores[0].mean_provenance > 0.9


def test_bot_excluded_from_panel(expert_world):
    chain, accounts = expert_world
    finder = ExpertFinder(build_supply_chain_graph(chain.ledger))
    panel = finder.suggest_panel("health", k=5, min_quality=0.6)
    assert accounts["expert"].address in panel
    assert accounts["bot"].address not in panel


def test_min_articles_gate(expert_world):
    chain, accounts = expert_world
    finder = ExpertFinder(build_supply_chain_graph(chain.ledger), min_articles=2)
    authors = [s.author for s in finder.scores("health")]
    assert accounts["casual"].address not in authors


def test_unknown_topic_empty(expert_world):
    chain, _ = expert_world
    finder = ExpertFinder(build_supply_chain_graph(chain.ledger))
    assert finder.scores("sports") == []
    assert finder.suggest_panel("sports") == []


# -- token contract ----------------------------------------------------------------


@pytest.fixture
def token_chain():
    chain = LocalChain(seed=8)
    chain.install_contract(TokenContract())
    return chain


def test_mint_transfer_balance(token_chain):
    root, alice = token_chain.new_account(), token_chain.new_account()
    token_chain.invoke(root, "token", "mint", {"to": alice.address, "amount": 100})
    token_chain.invoke(alice, "token", "transfer", {"to": root.address, "amount": 30})
    assert token_chain.query("token", "balance_of", {"address": alice.address}) == 70
    assert token_chain.query("token", "balance_of", {"address": root.address}) == 30


def test_only_root_mints(token_chain):
    root, mallory = token_chain.new_account(), token_chain.new_account()
    token_chain.invoke(root, "token", "mint", {"to": root.address, "amount": 1})
    with pytest.raises(ContractError, match="token root"):
        token_chain.invoke(mallory, "token", "mint", {"to": mallory.address, "amount": 100})


def test_overdraft_rejected(token_chain):
    root = token_chain.new_account()
    token_chain.invoke(root, "token", "mint", {"to": root.address, "amount": 10})
    with pytest.raises(ContractError, match="insufficient"):
        token_chain.invoke(root, "token", "transfer", {"to": "acct:" + "0" * 40, "amount": 11})


def test_positive_amounts_only(token_chain):
    root = token_chain.new_account()
    with pytest.raises(ContractError):
        token_chain.invoke(root, "token", "mint", {"to": root.address, "amount": 0})


# -- ecosystem economy ----------------------------------------------------------------


def test_economy_role_mix():
    sim = EcosystemSimulator.generate(n_agents=300, seed=1, dishonest_fraction=0.25)
    roles = {a.role for a in sim.agents}
    assert roles == {"consumer", "creator", "checker", "developer", "publisher"}
    dishonest = sum(not a.honest for a in sim.agents)
    assert 50 < dishonest < 110  # ~25%


def test_honest_creators_outearn_dishonest():
    sim = EcosystemSimulator.generate(n_agents=300, seed=2, dishonest_fraction=0.3)
    sim.run(n_rounds=30)
    earnings = sim.earnings_by(role="creator")
    assert earnings["honest"] > earnings["dishonest"]


def test_dishonest_creators_lose_money_in_expectation():
    sim = EcosystemSimulator.generate(n_agents=300, seed=3, dishonest_fraction=0.3)
    sim.run(n_rounds=30)
    assert sim.earnings_by(role="creator")["dishonest"] < 0


def test_honest_checkers_profit():
    sim = EcosystemSimulator.generate(n_agents=300, seed=4, dishonest_fraction=0.3)
    sim.run(n_rounds=30)
    earnings = sim.earnings_by(role="checker")
    assert earnings["honest"] > 0
    assert earnings["honest"] > earnings["dishonest"]


def test_round_log_records_flows():
    sim = EcosystemSimulator.generate(n_agents=100, seed=5)
    sim.run(n_rounds=5)
    assert len(sim.round_log) == 5
    assert all(flow["fees"] >= 0 for flow in sim.round_log)


def test_economy_deterministic():
    a = EcosystemSimulator.generate(n_agents=100, seed=6)
    b = EcosystemSimulator.generate(n_agents=100, seed=6)
    a.run(10)
    b.run(10)
    assert [x.balance for x in a.agents] == [x.balance for x in b.agents]


def test_recruit_pool_seeds_experts(expert_world):
    import random

    from repro.core import ExpertFinder, build_supply_chain_graph

    chain, accounts = expert_world
    finder = ExpertFinder(build_supply_chain_graph(chain.ledger))
    rng = random.Random(5)
    pool = finder.recruit_pool("health", rng, pool_size=10)
    assert len(pool.validators) == 10
    expert_validators = [v for v in pool.validators if v.address is not None]
    assert expert_validators, "ledger expert should be recruited"
    assert accounts["expert"].address in {v.validator_id for v in expert_validators}
    # Experts carry elevated weight and accuracy.
    recruits = [v for v in pool.validators if v.address is None]
    assert all(e.weight > r.weight for e in expert_validators for r in recruits)
    assert all(e.accuracy > r.accuracy for e in expert_validators for r in recruits)


def test_expert_seeded_pool_outperforms_cold_pool(expert_world):
    import random

    from repro.core import ExpertFinder, ValidatorPool, build_supply_chain_graph

    chain, accounts = expert_world
    finder = ExpertFinder(build_supply_chain_graph(chain.ledger))
    rng_a, rng_b = random.Random(6), random.Random(6)
    seeded = finder.recruit_pool("health", rng_a, pool_size=9)
    cold = ValidatorPool.generate(9, rng_b, accuracy_range=(0.64, 0.80))
    seeded_correct = cold_correct = 0
    trials = 60
    for trial in range(trials):
        truth = trial % 2 == 0
        votes_seeded = seeded.collect_votes(truth, rng_a)
        votes_cold = cold.collect_votes(truth, rng_b)
        seeded_correct += int((ValidatorPool.weighted_share(votes_seeded) >= 0.5) == truth)
        cold_correct += int((ValidatorPool.weighted_share(votes_cold) >= 0.5) == truth)
    assert seeded_correct >= cold_correct
    assert seeded_correct / trials > 0.9
