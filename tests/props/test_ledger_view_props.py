"""Property: after any interleaving of writes and reads, what the
platform answers from its followed view is what a from-genesis pass over
the same ledger answers — the graph node for node and edge for edge *in
order* (Dijkstra's tie-break and ``find_original_author``'s ``min`` walk
successors in insertion order), each article's votes as the scan over
every ``vote-cast`` event gives them, each room as the scan over every
``article-published`` event gives it — and nothing handed out is shared
with the view.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TrustingNewsPlatform, build_supply_chain_graph
from repro.corpus import CorpusGenerator
from repro.corpus.mutations import relay
from repro.social.cascade import ShareEvent

WRITES = ("publish_article", "report_external", "ingest_share", "cast_vote", "rank_article")
READS = ("graph", "trace", "export_audit", "rank_room", "none")
N_CHECKERS = 4

#: A step is one to three writes (so a fold spans one block or several),
#: then the read that moves the view's cursor first.
steps = st.lists(
    st.tuples(
        st.lists(st.tuples(st.sampled_from(WRITES), st.integers(0, 10**6)),
                 min_size=1, max_size=3),
        st.sampled_from(READS),
    ),
    min_size=1, max_size=6,
)


def scan_votes(ledger, article_id):
    """``export_audit``'s vote list as the parent computed it."""
    return [
        {"voter": event["_sender"], "verdict": event["verdict"], "weight": event["weight"]}
        for event in ledger.events(contract="votes", kind="vote-cast")
        if event["article_id"] == article_id
    ]


def scan_room(ledger, room):
    """``rank_room``'s article list as the parent computed it (one
    platform here, so ignoring the platform's name cannot show)."""
    return [
        event["article_id"]
        for event in ledger.events(contract="newsroom", kind="article-published")
        if event["room"] == room
    ]


class World:
    def __init__(self, seed: int):
        self.platform = plat = TrustingNewsPlatform(seed=seed)
        self.gen = CorpusGenerator(seed=seed)
        self.fact = self.gen.factual(topic="politics")
        plat.seed_fact("f-0", self.fact.text, "public-record", "politics")
        plat.register_participant("wire", role="publisher")
        plat.create_distribution_platform("wire", "wire-news")
        for room in ("desk", "annex"):
            plat.create_news_room("wire", "wire-news", room, "politics")
        for index in range(N_CHECKERS):
            plat.register_participant(f"checker-{index}", role="checker")
        self.articles = []          # (id, Article) on the supply chain
        self.voted = set()          # (checker, article id)

    def write(self, kind: str, draw: int) -> None:
        plat, number = self.platform, len(self.articles)
        source = self.articles[draw % number][1] if self.articles else self.fact
        derived = relay(source, "wire", float(number))
        if kind == "publish_article":
            article_id = f"pub-{number}"
            plat.publish_article("wire", "wire-news", ("desk", "annex")[draw % 2],
                                 article_id, derived.text, "politics")
        elif kind == "report_external":
            article_id = f"ext-{number}"
            plat.report_external("checker-0", article_id, derived.text, "politics", "elsewhere")
        elif kind == "ingest_share" and self.articles:
            article_id = f"share-{number}"
            parent = self.articles[draw % number][0]
            plat.ingest_share(
                ShareEvent(time=0.0, round_index=number, agent_id=f"checker-{draw % N_CHECKERS}",
                           source_agent_id="wire", article_id=article_id,
                           parent_article_id=parent, op="share"),
                replace(derived, article_id=article_id))
        elif kind == "cast_vote" and self.articles:
            ballot = (f"checker-{draw % N_CHECKERS}", self.articles[draw % number][0])
            if ballot not in self.voted:        # an identity votes once per article
                plat.cast_vote(*ballot, verdict=bool(draw % 3))
                self.voted.add(ballot)
            return
        elif kind == "rank_article" and self.articles:
            plat.rank_article(self.articles[draw % number][0], record=True)
            return
        else:
            return
        self.articles.append((article_id, replace(derived, article_id=article_id)))

    def read(self, kind: str) -> None:
        """Each read is its own way into the fold; the check after the
        step must hold whichever came first."""
        plat = self.platform
        target = self.articles[-1][0] if self.articles else "missing"
        if kind == "graph":
            plat.graph
        elif kind == "trace":
            plat.trace(target)
        elif kind == "export_audit" and self.articles:
            plat.export_audit(target)
        elif kind == "rank_room":
            plat.rank_room("wire-news", "desk")

    def check(self) -> None:
        plat, ledger = self.platform, self.platform.chain.ledger
        oracle = build_supply_chain_graph(ledger)
        assert list(plat.graph.nodes(data=True)) == list(oracle.nodes(data=True))
        assert list(plat.graph.edges(data=True)) == list(oracle.edges(data=True))
        for article_id, _ in self.articles:
            votes = plat.export_audit(article_id)["votes"]
            assert votes == scan_votes(ledger, article_id)
            for vote in votes:
                vote["verdict"] = "TAMPERED"
            assert plat.export_audit(article_id)["votes"] == scan_votes(ledger, article_id)
        for room in ("desk", "annex"):
            assert sorted(r.article_id for r in plat.rank_room("wire-news", room)) == sorted(
                scan_room(ledger, room))
            assert plat._view.rooms.get(("wire-news", room), []) == scan_room(ledger, room)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 50), steps=steps)
def test_followed_view_equals_the_from_genesis_pass_after_every_step(seed, steps):
    world = World(seed)
    world.check()
    for writes, read in steps:
        for kind, draw in writes:
            world.write(kind, draw)
        world.read(read)
        world.check()
