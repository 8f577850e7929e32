"""Bot-ring detection from the propagation ledger (§II).

Grinberg et al. [36], which the paper builds its threat model on: fake
news spread "is driven substantially by bots and cyborgs" and "the
concentration of fake news sources offers both a challenge for
detection algorithms and a promise for more targeted interventions".

The ledger makes the concentration *visible*: coordinated amplification
rings re-share each other's content reciprocally, which organic
propagation (approximately a tree) almost never does.  Detection here
is structural + behavioural:

- :func:`account_activity_features` — per-account behavioural signals
  (volume, reciprocity, source concentration, mutation rate),
- :func:`detect_bot_rings` — connected components of the *mutual-share*
  graph (pairs that amplified each other), the ring signature,
- :func:`bot_scores` — a [0, 1] heuristic fusing both.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.social.cascade import ShareEvent

__all__ = ["AccountActivity", "account_activity_features", "detect_bot_rings", "bot_scores"]


@dataclass(frozen=True)
class AccountActivity:
    """Behavioural summary of one account's sharing."""

    agent_id: str
    shares: int
    distinct_sources: int
    reciprocity: float  # fraction of its source ties that are mutual
    source_concentration: float  # Herfindahl index over sources
    mutation_rate: float  # fraction of shares that modified content


def account_activity_features(events: list[ShareEvent]) -> dict[str, AccountActivity]:
    """Per-account behavioural features from share events."""
    shares_by: dict[str, list[ShareEvent]] = defaultdict(list)
    pair_counts: Counter[tuple[str, str]] = Counter()
    for event in events:
        shares_by[event.agent_id].append(event)
        pair_counts[(event.source_agent_id, event.agent_id)] += 1
    features = {}
    for agent_id, agent_events in shares_by.items():
        sources = Counter(e.source_agent_id for e in agent_events)
        total = sum(sources.values())
        concentration = sum((count / total) ** 2 for count in sources.values())
        mutual = sum(
            1 for source in sources if pair_counts.get((agent_id, source), 0) > 0
        )
        mutations = sum(1 for e in agent_events if e.op not in ("relay",))
        features[agent_id] = AccountActivity(
            agent_id=agent_id,
            shares=len(agent_events),
            distinct_sources=len(sources),
            reciprocity=mutual / len(sources) if sources else 0.0,
            source_concentration=concentration,
            mutation_rate=mutations / len(agent_events),
        )
    return features


def detect_bot_rings(
    events: list[ShareEvent],
    min_ring_size: int = 3,
    min_mutual_weight: int = 2,
    min_partners: int = 2,
) -> list[set[str]]:
    """Find coordinated amplification rings.

    A single mutual share can happen organically (mutual follows exist,
    and two accounts may each once re-share the other's *different*
    stories).  Coordination looks different: pairs that re-share each
    other **repeatedly** (direction weights >= ``min_mutual_weight``),
    and accounts embedded in a **dense** mutual neighbourhood (the
    k-core with ``min_partners`` mutual partners each).  Rings are the
    connected components of that filtered graph with at least
    ``min_ring_size`` members.
    """
    import networkx as nx

    forward: Counter[tuple[str, str]] = Counter()
    for event in events:
        if event.source_agent_id != event.agent_id:
            forward[(event.source_agent_id, event.agent_id)] += 1
    mutual = nx.Graph()
    for (a, b), weight in forward.items():
        reverse_weight = forward.get((b, a), 0)
        if weight >= min_mutual_weight and reverse_weight >= min_mutual_weight:
            mutual.add_edge(a, b, weight=min(weight, reverse_weight))
    dense = nx.k_core(mutual, k=min_partners) if mutual.number_of_nodes() else mutual
    rings = [
        set(component)
        for component in nx.connected_components(dense)
        if len(component) >= min_ring_size
    ]
    rings.sort(key=lambda ring: (-len(ring), min(ring)))
    return rings


def bot_scores(events: list[ShareEvent], min_ring_size: int = 3) -> dict[str, float]:
    """[0, 1] bot-likelihood per account: ring membership + behaviour.

    Ring membership is the dominant signal (0.6); the rest comes from
    behavioural excess (volume, reciprocity, mutation habit) so lone
    aggressive bots still score above organic users.
    """
    features = account_activity_features(events)
    ring_members: set[str] = set()
    for ring in detect_bot_rings(events, min_ring_size=min_ring_size):
        ring_members |= ring
    if not features:
        return {}
    max_shares = max(activity.shares for activity in features.values())
    scores = {}
    for agent_id, activity in features.items():
        behavioural = (
            0.15 * (activity.shares / max_shares)
            + 0.15 * activity.reciprocity
            + 0.10 * activity.mutation_rate
        )
        scores[agent_id] = min(1.0, (0.6 if agent_id in ring_members else 0.0) + behavioural)
    return scores
