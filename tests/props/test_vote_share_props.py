"""Property: the crowd share a ranking reads out of the ledger fold is
``votes.tally``'s, bit for bit — whatever the weights, verdicts and voters,
whatever order the votes were cast in, and however the fold was cut into
incremental ``follow`` calls.

Float addition is not associative, so this holds only because both sum in
one order: ``crowdsourcing.factual_share`` walks voter addresses the way
``tally``'s key range does, while the fold holds the votes in chain order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import LocalChain
from repro.core.crowdsourcing import VoteContract
from repro.core.identity import IdentityContract
from repro.core.platform import LedgerView

N_VOTERS = 5
ARTICLES = ("a-0", "a-1", "a-2")

#: (voter, article, verdict, weight, follow after this vote), one vote per
#: voter and article, cast in list order.
ballots = st.lists(
    st.tuples(st.integers(0, N_VOTERS - 1), st.sampled_from(ARTICLES), st.booleans(),
              st.floats(0.0, 1.0, exclude_min=True), st.booleans()),
    max_size=15, unique_by=lambda ballot: ballot[:2],
)


def assert_fold_is_the_tally(view: LedgerView, chain: LocalChain) -> None:
    for article_id in ARTICLES:
        tally = chain.query("votes", "tally", {"article_id": article_id})
        assert len(view.votes.get(article_id, ())) == tally["votes"]
        share = view.crowd_score(article_id)
        if tally["votes"] == 0:
            assert share is None
        else:
            assert share.hex() == tally["factual_share"].hex(), article_id


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), ballots=ballots)
def test_fold_share_is_the_tally_bit_for_bit(seed, ballots):
    chain = LocalChain(seed=seed)        # the seed draws the voters' addresses
    chain.install_contract(IdentityContract())
    chain.install_contract(VoteContract())
    voters = [chain.new_account() for _ in range(N_VOTERS)]
    for index, voter in enumerate(voters):
        chain.invoke(voter, "identity", "register", {"display_name": f"v{index}", "role": "checker"})
    view = LedgerView()
    for voter, article_id, verdict, weight, follow in ballots:
        chain.invoke(voters[voter], "votes", "cast",
                     {"article_id": article_id, "verdict": verdict, "weight": weight})
        if follow:
            assert_fold_is_the_tally(view.follow(chain.ledger), chain)
    assert_fold_is_the_tally(view.follow(chain.ledger), chain)
    assert_fold_is_the_tally(LedgerView().follow(chain.ledger), chain)
