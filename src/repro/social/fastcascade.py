"""Vectorized cascade engine: the million-agent propagation path.

The scalar :class:`~repro.social.cascade.CascadeRunner` walks a
networkx graph edge by edge in Python — perfect as a readable oracle,
hopeless at the ~1M-agent scale the paper's §VII scalability story
needs.  This module keeps the exact cascade semantics but restates the
hot loop as array programs:

- :class:`CompiledCascadeGraph` freezes a bound follow graph into CSR
  adjacency (``indptr``/``indices``) plus struct-of-arrays agent state
  (share probability, attention, kind, ring, community as parallel
  NumPy arrays), or synthesizes one directly at sizes where building a
  networkx graph is already the bottleneck;
- :class:`FastCascadeRunner.run` replays a cascade frontier-at-a-time:
  successor slices are gathered per round, already-seen pairs masked,
  share decisions drawn as one vectorized Bernoulli per round, and
  Python objects (:class:`ShareEvent`, mutated :class:`Article`) are
  materialized only for the sparse set of actual shares;
- :meth:`FastCascadeRunner.run_stats` is the bulk statistics path used
  by the scaling benchmarks: no per-share objects at all, just reach
  curves and share counts, which is what a 12-round 1M-agent cascade
  rides on.

Equivalence with the scalar engine is not aspirational: both runners
accept a :class:`KeyedDraws` source that maps (article, agent, purpose)
to a uniform — consumption-order-free randomness — under which the two
engines produce byte-identical events, articles, and reach (the
``ChainIndex.verify_against`` pattern, applied to the simulator).
Without an injected source the fast engine draws from one seeded
``numpy.random.Generator``, so every run is deterministic in its seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import networkx as nx

from repro.corpus.articles import Article
from repro.corpus.generator import CorpusGenerator
from repro.errors import SimulationError
from repro.mix64 import MASK64, mix64, mix64_array
from repro.social.agents import AgentKind, KIND_PROFILES, SocialAgent
from repro.social.cascade import (
    DRAW_BENIGN,
    DRAW_MUTATE,
    DRAW_SHARE,
    DRAW_VERIFY,
    CascadeResult,
    ShareEvent,
    emotional_appeal,
)

__all__ = [
    "KeyedDraws",
    "CompiledCascadeGraph",
    "FastCascadeRunner",
    "CascadeStats",
]

#: Lane separation constants: agent index and purpose land in distinct
#: high-entropy lanes of the 64-bit counter before mixing.
_PRIME_AGENT = 0xA24BAED4963EE407
_PRIME_PURPOSE = 0x9FB21C651E98DF25

_KIND_ORDER = (AgentKind.USER, AgentKind.BOT, AgentKind.CYBORG, AgentKind.JOURNALIST)
_KIND_CODE = {kind: code for code, kind in enumerate(_KIND_ORDER)}


class KeyedDraws:
    """Counter-based uniform source keyed by (article, agent, purpose).

    Unlike a sequential RNG, a keyed draw is a pure function of its key,
    so two engines that evaluate candidates in different orders (or skip
    candidates the other one visits) still see *identical* randomness.
    This is what makes scalar-vs-vectorized equivalence testable as
    byte equality rather than "statistically similar".

    The scalar path uses :meth:`unit`; the vectorized path calls
    :meth:`unit_array` with the same key material and gets bit-identical
    doubles (both derive the double from the top 53 bits of the same
    SplitMix64 output).
    """

    def __init__(self, seed: int = 0):
        self.seed = mix64(seed & MASK64)

    def key(self, article_id: str) -> int:
        """Stable 64-bit key for one article id."""
        digest = hashlib.blake2b(article_id.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little")

    def _counter(self, article_key: int, agent_index: int, purpose: int) -> int:
        return (
            self.seed
            + article_key
            + agent_index * _PRIME_AGENT
            + purpose * _PRIME_PURPOSE
        ) & MASK64

    def unit(self, article_key: int, agent_index: int, purpose: int) -> float:
        """One uniform in [0, 1) for a single (article, agent, purpose)."""
        return (mix64(self._counter(article_key, agent_index, purpose)) >> 11) * 2.0**-53

    def unit_array(
        self, article_keys: np.ndarray, agent_indices: np.ndarray, purpose: int
    ) -> np.ndarray:
        """Vectorized :meth:`unit` over parallel key/agent arrays."""
        counters = (
            np.uint64(self.seed)
            + article_keys.astype(np.uint64)
            + agent_indices.astype(np.uint64) * np.uint64(_PRIME_AGENT)
            + np.uint64((purpose * _PRIME_PURPOSE) & MASK64)
        )
        return (mix64_array(counters) >> np.uint64(11)) * 2.0**-53


class CompiledCascadeGraph:
    """A bound follow graph frozen into CSR + struct-of-arrays form.

    ``indices[indptr[u]:indptr[u + 1]]`` are the followers of agent
    ``u`` (edge u -> v means content flows u to v), in the same order
    ``graph.successors`` yields them, so the vectorized engine visits
    candidates in exactly the scalar engine's order.  Agent indices are
    ranks in sorted node order — the ``bind_agents`` convention.

    Compilation is a snapshot: mutate the underlying agents (e.g.
    ``make_botnet``) or edges and you must recompile.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        share_probability: np.ndarray,
        attention: np.ndarray,
        kind_codes: np.ndarray,
        malicious: np.ndarray,
        mutate_probability: np.ndarray,
        ring_codes: np.ndarray,
        community: np.ndarray,
        agent_ids: list[str] | None = None,
        nodes: list[int] | None = None,
    ):
        self.n_agents = len(indptr) - 1
        self.indptr = indptr
        self.indices = indices
        self.share_probability = share_probability
        self.attention = attention
        self.kind_codes = kind_codes
        self.journalist = kind_codes == _KIND_CODE[AgentKind.JOURNALIST]
        self.malicious = malicious
        self.mutate_probability = mutate_probability
        self.ring_codes = ring_codes
        self.community = community
        self._agent_ids = agent_ids
        self._nodes = nodes
        self._node_index = (
            {node: i for i, node in enumerate(nodes)} if nodes is not None else None
        )

    # -- construction ---------------------------------------------------

    @classmethod
    def from_graph(cls, graph: nx.DiGraph) -> "CompiledCascadeGraph":
        """Compile a bound networkx follow graph (``bind_agents`` done)."""
        nodes = sorted(graph.nodes())
        node_index = {node: i for i, node in enumerate(nodes)}
        n = len(nodes)
        agents: list[SocialAgent] = []
        for node in nodes:
            agent = graph.nodes[node].get("agent")
            if agent is None:
                raise SimulationError(
                    f"node {node!r} has no bound agent — call bind_agents first"
                )
            agents.append(agent)
        indptr = np.zeros(n + 1, dtype=np.int64)
        out_lists: list[list[int]] = []
        total = 0
        for i, node in enumerate(nodes):
            followers = [node_index[v] for v in graph.successors(node)]
            out_lists.append(followers)
            total += len(followers)
            indptr[i + 1] = total
        indices = np.empty(total, dtype=np.int32)
        for i, followers in enumerate(out_lists):
            indices[indptr[i] : indptr[i + 1]] = followers
        ring_names: dict[str, int] = {}
        ring_codes = np.full(n, -1, dtype=np.int32)
        for i, agent in enumerate(agents):
            if agent.ring is not None:
                ring_codes[i] = ring_names.setdefault(agent.ring, len(ring_names))
        return cls(
            indptr=indptr,
            indices=indices,
            share_probability=np.array([a.share_probability for a in agents]),
            attention=np.array([a.attention for a in agents], dtype=np.int32),
            kind_codes=np.array([_KIND_CODE[a.kind] for a in agents], dtype=np.int8),
            malicious=np.array([a.malicious for a in agents], dtype=bool),
            mutate_probability=np.array([a.mutate_probability for a in agents]),
            ring_codes=ring_codes,
            community=np.array([a.community for a in agents], dtype=np.int32),
            agent_ids=[a.agent_id for a in agents],
            nodes=nodes,
        )

    @classmethod
    def synthesize(
        cls,
        n_agents: int,
        mean_degree: float = 8.0,
        seed: int = 0,
        bot_fraction: float = 0.08,
        cyborg_fraction: float = 0.05,
        journalist_fraction: float = 0.03,
        max_degree: int | None = None,
    ) -> "CompiledCascadeGraph":
        """Synthesize a follow graph directly in CSR form.

        At 1M agents even *allocating* a networkx graph dominates, so
        the scale benchmarks generate the adjacency arrays directly: a
        heavy-tailed (lognormal) follower-count distribution with
        uniformly drawn followers, and agent state drawn from the same
        ``KIND_PROFILES`` the object population uses.  Entirely driven
        by one seeded ``numpy.random.Generator``.
        """
        if n_agents < 2:
            raise SimulationError("need at least two agents")
        rng = np.random.default_rng(seed)
        cap = max_degree or max(16, n_agents // 100)
        # Lognormal with median ~= mean_degree / e^(sigma^2/2) keeps the
        # mean near mean_degree while giving hub-like heavy tails.
        sigma = 1.0
        mu = np.log(mean_degree) - sigma * sigma / 2.0
        degrees = np.clip(
            rng.lognormal(mean=mu, sigma=sigma, size=n_agents), 1, cap
        ).astype(np.int64)
        indptr = np.zeros(n_agents + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        total = int(indptr[-1])
        indices = rng.integers(0, n_agents, size=total, dtype=np.int32)
        # Remap self-follows to the next agent (cheap, keeps counts).
        own = np.repeat(np.arange(n_agents, dtype=np.int32), degrees)
        loops = indices == own
        indices[loops] = (indices[loops] + 1) % n_agents

        kind_draw = rng.random(n_agents)
        kind_codes = np.zeros(n_agents, dtype=np.int8)
        bot_cut = bot_fraction
        cyborg_cut = bot_cut + cyborg_fraction
        journalist_cut = cyborg_cut + journalist_fraction
        kind_codes[kind_draw < bot_cut] = _KIND_CODE[AgentKind.BOT]
        kind_codes[(kind_draw >= bot_cut) & (kind_draw < cyborg_cut)] = _KIND_CODE[
            AgentKind.CYBORG
        ]
        kind_codes[(kind_draw >= cyborg_cut) & (kind_draw < journalist_cut)] = _KIND_CODE[
            AgentKind.JOURNALIST
        ]

        profile_share = np.array([KIND_PROFILES[k].share_probability for k in _KIND_ORDER])
        profile_malicious = np.array(
            [KIND_PROFILES[k].malicious_probability for k in _KIND_ORDER]
        )
        profile_mutate = np.array([KIND_PROFILES[k].mutate_probability for k in _KIND_ORDER])
        profile_attention = np.array(
            [KIND_PROFILES[k].attention for k in _KIND_ORDER], dtype=np.int32
        )
        malicious = rng.random(n_agents) < profile_malicious[kind_codes]
        return cls(
            indptr=indptr,
            indices=indices,
            share_probability=profile_share[kind_codes],
            attention=profile_attention[kind_codes],
            kind_codes=kind_codes,
            malicious=malicious,
            mutate_probability=np.where(malicious, profile_mutate[kind_codes], 0.0),
            ring_codes=np.full(n_agents, -1, dtype=np.int32),
            community=np.zeros(n_agents, dtype=np.int32),
        )

    # -- lookups --------------------------------------------------------

    @property
    def n_edges(self) -> int:
        return int(self.indptr[-1])

    def agent_id(self, index: int) -> str:
        if self._agent_ids is not None:
            return self._agent_ids[index]
        return f"agent-{index:07d}"

    def node_to_index(self, node: int) -> int:
        """Map an original graph node label to its agent index."""
        if self._node_index is None:
            # Synthesized graphs: node labels ARE indices.
            if not 0 <= node < self.n_agents:
                raise SimulationError(f"agent index {node} out of range")
            return node
        try:
            return self._node_index[node]
        except KeyError:
            raise SimulationError(f"unknown graph node {node!r}") from None

    def out_degree(self, index: int) -> int:
        return int(self.indptr[index + 1] - self.indptr[index])


@dataclass
class CascadeStats:
    """Array-level outcome of a bulk (:meth:`FastCascadeRunner.run_stats`)
    cascade: everything the scaling benchmarks read, none of the
    per-share Python objects."""

    n_agents: int
    roots: list[int]
    rounds_run: int
    shares_by_round: list[int] = field(default_factory=list)
    #: cumulative unique exposure per root per round, shape (roots, rounds).
    reach_curves: np.ndarray | None = None
    #: total candidate edges examined (the vectorized engine's unit of work).
    candidates_examined: int = 0
    #: per-agent share counts over the whole cascade (len n_agents).
    shares_by_agent: np.ndarray | None = None

    @property
    def total_shares(self) -> int:
        return int(sum(self.shares_by_round))

    def reach(self, root_position: int) -> int:
        if self.reach_curves is None or self.reach_curves.shape[1] == 0:
            return 0
        return int(self.reach_curves[root_position, -1])

    def reach_curve(self, root_position: int) -> list[int]:
        if self.reach_curves is None:
            return []
        return [int(v) for v in self.reach_curves[root_position]]


class FastCascadeRunner:
    """Vectorized drop-in for :class:`~repro.social.cascade.CascadeRunner`.

    Accepts either a bound networkx graph (compiled on construction) or
    a prebuilt :class:`CompiledCascadeGraph`.  ``run`` keeps the scalar
    engine's full contract — events, mutated articles, exposure sets,
    the ``on_share`` hook — materializing objects only for actual
    shares; ``run_stats`` drops even that for pure array output.

    The ``flagged``/``promoted`` predicates are evaluated once per
    frontier article per round (at round start), not once per candidate
    edge; predicates that mutate state mid-round (as ``run_race`` does
    exactly at its flag round) may therefore disagree with the scalar
    engine in that boundary round.  Pure predicates agree everywhere.
    """

    def __init__(
        self,
        graph: nx.DiGraph | CompiledCascadeGraph,
        corpus: CorpusGenerator | None = None,
        seed: int = 0,
        flagged: Callable[[str], bool] | None = None,
        promoted: Callable[[str], bool] | None = None,
        on_share: Callable[[ShareEvent, Article], None] | None = None,
        damping: float = 0.8,
        promotion_boost: float = 2.0,
        journalist_verify_accuracy: float = 0.85,
        draws: KeyedDraws | None = None,
    ):
        if isinstance(graph, CompiledCascadeGraph):
            self.compiled = graph
        else:
            self.compiled = CompiledCascadeGraph.from_graph(graph)
        self.corpus = corpus
        self.flagged = flagged or (lambda article_id: False)
        self.promoted = promoted or (lambda article_id: False)
        self.on_share = on_share
        self.damping = damping
        self.promotion_boost = promotion_boost
        self.journalist_verify_accuracy = journalist_verify_accuracy
        self.draws = draws
        self._rng = np.random.default_rng(seed)
        self._appeal_cache: dict[str, float] = {}
        # Per-round attention budgets, generation-stamped so a 1M-agent
        # world never re-zeroes the arrays between rounds.
        n = self.compiled.n_agents
        self._att_stamp = np.full(n, -1, dtype=np.int64)
        self._att_count = np.zeros(n, dtype=np.int32)
        self._round_stamp = 0

    # -- shared helpers -------------------------------------------------

    def _appeal(self, article: Article) -> float:
        cached = self._appeal_cache.get(article.text)
        if cached is None:
            cached = emotional_appeal(article)
            self._appeal_cache[article.text] = cached
        return cached

    def _expand(self, posters: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CSR frontier expansion: (candidate agents, frontier entry of
        each candidate), in exactly the scalar engine's visit order."""
        g = self.compiled
        starts = g.indptr[posters]
        counts = g.indptr[posters + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        offsets = np.cumsum(counts) - counts
        within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
        cand_agent = g.indices[np.repeat(starts, counts) + within].astype(np.int64)
        cand_entry = np.repeat(np.arange(len(posters), dtype=np.int64), counts)
        return cand_agent, cand_entry

    @staticmethod
    def _first_occurrence(keys: np.ndarray) -> np.ndarray:
        """Boolean mask keeping the first occurrence of each key, in
        original order (the vectorized ``agent.seen`` check)."""
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        keep = np.ones(len(keys), dtype=bool)
        keep[order[1:]] = sorted_keys[1:] != sorted_keys[:-1]
        return keep

    # -- full-fidelity path ---------------------------------------------

    def run(
        self,
        seeds: list[tuple[int, Article]],
        n_rounds: int = 12,
        start_time: float = 0.0,
        time_per_round: float = 1.0,
        materialize_exposed: bool = True,
    ) -> CascadeResult:
        """Propagate *seeds* with the scalar engine's full contract.

        With an injected :class:`KeyedDraws` source (and the same source
        driving a :class:`~repro.social.cascade.CascadeRunner`), the
        returned events, articles, reach sets and round curves are
        byte-identical to the scalar engine's.  Set
        ``materialize_exposed=False`` at scale to keep exposure as
        counts (``CascadeResult.reach_counts``) instead of building
        per-root sets of agent-id strings.
        """
        if self.corpus is None:
            raise SimulationError("run() needs a corpus; use run_stats for bulk mode")
        g = self.compiled
        n = g.n_agents
        result = CascadeResult()
        keyed = self.draws is not None

        root_order: list[str] = []
        exposed: list[np.ndarray] = []  # per root, bool[n]
        exposed_count: list[int] = []
        root_position: dict[str, int] = {}

        frontier_posters: list[int] = []
        frontier_articles: list[Article] = []
        for node, article in seeds:
            index = g.node_to_index(node)
            root = article.article_id
            if root not in result.root_of:
                result.record_article(article, root)
            if root in root_position:
                # Mirror the scalar engine's quirk: re-seeding the same
                # article resets its exposure set to the latest poster.
                position = root_position[root]
                exposed[position][:] = False
            else:
                position = len(root_order)
                root_position[root] = position
                root_order.append(root)
                exposed.append(np.zeros(n, dtype=bool))
                exposed_count.append(0)
            exposed[position][index] = True
            exposed_count[position] = 1
            frontier_posters.append(index)
            frontier_articles.append(article)

        for round_index in range(n_rounds):
            time = start_time + round_index * time_per_round
            self._round_stamp += 1
            shares_this_round = 0
            next_posters: list[int] = []
            next_articles: list[Article] = []

            posters = np.asarray(frontier_posters, dtype=np.int64)
            # Unique frontier articles in first-appearance order; two
            # seed entries may share an article, so dedup keys on the
            # article ordinal rather than the frontier entry.
            art_list: list[Article] = []
            art_ordinal: dict[str, int] = {}
            entry_art = np.empty(len(frontier_articles), dtype=np.int64)
            for position, article in enumerate(frontier_articles):
                ordinal = art_ordinal.get(article.article_id)
                if ordinal is None:
                    ordinal = len(art_list)
                    art_ordinal[article.article_id] = ordinal
                    art_list.append(article)
                entry_art[position] = ordinal

            appeal = np.array([self._appeal(a) for a in art_list])
            flagged = np.array([self.flagged(a.article_id) for a in art_list], dtype=bool)
            promoted = np.array([self.promoted(a.article_id) for a in art_list], dtype=bool)
            fake = np.array([a.label_fake for a in art_list], dtype=bool)
            art_root = np.array(
                [root_position[result.root_of[a.article_id]] for a in art_list],
                dtype=np.int64,
            )
            if keyed:
                art_keys = np.array(
                    [self.draws.key(a.article_id) for a in art_list], dtype=np.uint64
                )

            cand_agent, cand_entry = self._expand(posters)
            if len(cand_agent):
                cand_art = entry_art[cand_entry]
                keep = self._first_occurrence(cand_art * np.int64(n) + cand_agent)
                cand_agent = cand_agent[keep]
                cand_entry = cand_entry[keep]
                cand_art = cand_art[keep]

                # Exposure accounting per root (few roots, boolean mask each).
                cand_root = art_root[cand_art]
                for position in range(len(root_order)):
                    agents_here = cand_agent[cand_root == position]
                    if not len(agents_here):
                        continue
                    newly = np.unique(agents_here[~exposed[position][agents_here]])
                    exposed[position][newly] = True
                    exposed_count[position] += len(newly)

                # One vectorized Bernoulli per round for the share draw.
                probability = g.share_probability[cand_agent] * appeal[cand_art]
                poster_ring = g.ring_codes[posters[cand_entry]]
                agent_ring = g.ring_codes[cand_agent]
                ring_pair = (agent_ring >= 0) & (agent_ring == poster_ring)
                probability = np.where(ring_pair, np.maximum(probability, 0.9), probability)
                cand_flagged = flagged[cand_art]
                cand_promoted = promoted[cand_art]
                probability = np.where(
                    cand_flagged,
                    probability * (1.0 - self.damping),
                    np.where(cand_promoted, probability * self.promotion_boost, probability),
                )
                np.minimum(probability, 1.0, out=probability)

                journalist = g.journalist[cand_agent]
                refuse = journalist & cand_flagged
                if keyed:
                    u_verify = self.draws.unit_array(
                        art_keys[cand_art], cand_agent, DRAW_VERIFY
                    )
                    u_share = self.draws.unit_array(
                        art_keys[cand_art], cand_agent, DRAW_SHARE
                    )
                else:
                    u_verify = self._rng.random(len(cand_agent))
                    u_share = self._rng.random(len(cand_agent))
                refuse |= journalist & fake[cand_art] & (
                    u_verify < self.journalist_verify_accuracy
                )
                wants = ~refuse & (u_share < probability)
                winners = np.flatnonzero(wants)

                if not keyed and len(winners):
                    u_mutate = self._rng.random(len(winners))
                    u_benign = self._rng.random(len(winners))

                for winner_position, ci in enumerate(winners):
                    agent = int(cand_agent[ci])
                    if self._att_stamp[agent] != self._round_stamp:
                        self._att_stamp[agent] = self._round_stamp
                        self._att_count[agent] = 0
                    if self._att_count[agent] >= g.attention[agent]:
                        continue
                    self._att_count[agent] += 1
                    ordinal = int(cand_art[ci])
                    parent = art_list[ordinal]
                    agent_id = g.agent_id(agent)
                    if keyed:
                        parent_key = int(art_keys[ordinal])
                        mutate_draw = self.draws.unit(parent_key, agent, DRAW_MUTATE)
                        benign_draw = self.draws.unit(parent_key, agent, DRAW_BENIGN)
                    else:
                        mutate_draw = float(u_mutate[winner_position])
                        benign_draw = float(u_benign[winner_position])
                    if g.malicious[agent] and mutate_draw < g.mutate_probability[agent]:
                        derived = self.corpus.malicious_derivation(parent, agent_id, time)
                    elif benign_draw < 0.1:
                        derived = self.corpus.benign_derivation(parent, agent_id, time)
                    else:
                        derived = self.corpus.relay_derivation(parent, agent_id, time)
                    root = result.root_of[parent.article_id]
                    result.record_article(derived, root)
                    event = ShareEvent(
                        time=time,
                        round_index=round_index,
                        agent_id=agent_id,
                        source_agent_id=g.agent_id(int(posters[cand_entry[ci]])),
                        article_id=derived.article_id,
                        parent_article_id=parent.article_id,
                        op=derived.op,
                    )
                    result.events.append(event)
                    shares_this_round += 1
                    if self.on_share is not None:
                        self.on_share(event, derived)
                    next_posters.append(agent)
                    next_articles.append(derived)

            result.shares_by_round.append(shares_this_round)
            result.exposures_by_round.append(
                {root: exposed_count[pos] for pos, root in enumerate(root_order)}
            )
            frontier_posters = next_posters
            frontier_articles = next_articles
            if not frontier_posters:
                break

        for position, root in enumerate(root_order):
            result.reach_counts[root] = exposed_count[position]
            if materialize_exposed:
                result.exposed_agents[root] = {
                    g.agent_id(int(i)) for i in np.flatnonzero(exposed[position])
                }
        return result

    # -- bulk statistics path -------------------------------------------

    def run_stats(
        self,
        seed_nodes: Sequence[int],
        n_rounds: int = 12,
        appeal: float | Sequence[float] = 2.0,
        fake: bool | Sequence[bool] = True,
        flag_round: int | None = None,
        flagged_roots: Sequence[int] | None = None,
        promoted_roots: Sequence[int] | None = None,
    ) -> CascadeStats:
        """Bulk cascade: pure array propagation, no per-share objects.

        Each seed node starts one lineage whose articles all carry that
        lineage's ``appeal``/``fake`` attributes (derivations are
        treated as relays — no mutation text is synthesized, which is
        the approximation that buys the 1M-agent round times).
        ``flag_round`` activates flag damping on ``flagged_roots`` (and
        promotion on ``promoted_roots``) from that round on.
        """
        g = self.compiled
        n = g.n_agents
        roots = [g.node_to_index(node) for node in seed_nodes]
        n_roots = len(roots)
        appeal_arr = np.broadcast_to(np.asarray(appeal, dtype=float), (n_roots,)).copy()
        fake_arr = np.broadcast_to(np.asarray(fake, dtype=bool), (n_roots,)).copy()
        flag_mask = np.zeros(n_roots, dtype=bool)
        promote_mask = np.zeros(n_roots, dtype=bool)
        for position in flagged_roots or ():
            flag_mask[position] = True
        for position in promoted_roots or ():
            promote_mask[position] = True

        exposed = np.zeros((n_roots, n), dtype=bool)
        exposed_count = np.zeros(n_roots, dtype=np.int64)
        curves: list[np.ndarray] = []
        shares_by_round: list[int] = []
        shares_by_agent = np.zeros(n, dtype=np.int64)
        candidates_examined = 0

        frontier_agent = np.asarray(roots, dtype=np.int64)
        frontier_root = np.arange(n_roots, dtype=np.int64)
        exposed[frontier_root, frontier_agent] = True
        exposed_count[:] = 1
        article_base = 0  # global lineage-item ordinal for seen-dedup

        rounds_run = 0
        for round_index in range(n_rounds):
            rounds_run += 1
            intervening = flag_round is not None and round_index >= flag_round
            cand_agent, cand_entry = self._expand(frontier_agent)
            shares = 0
            next_agent = np.empty(0, dtype=np.int64)
            next_root = np.empty(0, dtype=np.int64)
            if len(cand_agent):
                candidates_examined += len(cand_agent)
                # Every frontier entry is a distinct lineage item, so the
                # seen-key is (global item ordinal, agent).
                item = article_base + cand_entry
                keep = self._first_occurrence(item * np.int64(n) + cand_agent)
                cand_agent = cand_agent[keep]
                cand_entry = cand_entry[keep]
                cand_root = frontier_root[cand_entry]

                for position in range(n_roots):
                    agents_here = cand_agent[cand_root == position]
                    if not len(agents_here):
                        continue
                    newly = np.unique(agents_here[~exposed[position][agents_here]])
                    exposed[position][newly] = True
                    exposed_count[position] += len(newly)

                probability = g.share_probability[cand_agent] * appeal_arr[cand_root]
                poster_ring = g.ring_codes[frontier_agent[cand_entry]]
                agent_ring = g.ring_codes[cand_agent]
                ring_pair = (agent_ring >= 0) & (agent_ring == poster_ring)
                probability = np.where(ring_pair, np.maximum(probability, 0.9), probability)
                if intervening:
                    cand_flagged = flag_mask[cand_root]
                    cand_promoted = promote_mask[cand_root] & ~cand_flagged
                    probability = np.where(
                        cand_flagged, probability * (1.0 - self.damping), probability
                    )
                    probability = np.where(
                        cand_promoted, probability * self.promotion_boost, probability
                    )
                else:
                    cand_flagged = np.zeros(len(cand_agent), dtype=bool)
                np.minimum(probability, 1.0, out=probability)

                journalist = g.journalist[cand_agent]
                refuse = journalist & cand_flagged
                cand_fake = fake_arr[cand_root]
                verify = self._rng.random(len(cand_agent))
                refuse |= journalist & cand_fake & (verify < self.journalist_verify_accuracy)
                wants = ~refuse & (self._rng.random(len(cand_agent)) < probability)

                winner_agent = cand_agent[wants]
                winner_root = cand_root[wants]
                if len(winner_agent):
                    # Vectorized attention cap: an agent keeps its first
                    # `attention` successful draws in candidate order.
                    order = np.argsort(winner_agent, kind="stable")
                    sorted_agents = winner_agent[order]
                    is_first = np.ones(len(sorted_agents), dtype=bool)
                    is_first[1:] = sorted_agents[1:] != sorted_agents[:-1]
                    group_start = np.maximum.accumulate(
                        np.where(is_first, np.arange(len(sorted_agents)), 0)
                    )
                    rank_sorted = np.arange(len(sorted_agents)) - group_start
                    allowed_sorted = rank_sorted < g.attention[sorted_agents]
                    allowed = np.empty(len(winner_agent), dtype=bool)
                    allowed[order] = allowed_sorted
                    next_agent = winner_agent[allowed]
                    next_root = winner_root[allowed]
                    shares = int(len(next_agent))
                    np.add.at(shares_by_agent, next_agent, 1)

            article_base += len(frontier_agent)
            shares_by_round.append(shares)
            curves.append(exposed_count.copy())
            frontier_agent = next_agent
            frontier_root = next_root
            if not len(frontier_agent):
                break

        return CascadeStats(
            n_agents=n,
            roots=roots,
            rounds_run=rounds_run,
            shares_by_round=shares_by_round,
            reach_curves=np.stack(curves, axis=1) if curves else None,
            candidates_examined=candidates_examined,
            shares_by_agent=shares_by_agent,
        )
