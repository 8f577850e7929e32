"""The paper's core contribution: the AI blockchain trusting-news platform.

Contracts (identity, factual database, news rooms, supply chain, votes,
tokens), the provenance/ranking/crowd machinery, supply-chain analytics
(tracing, accountability, expert mining), intervention tooling, and the
integrated :class:`TrustingNewsPlatform` facade.
"""

from repro.core.analytics import (
    AccountReport,
    TopicStatistics,
    account_report,
    propagation_timeline,
    ranking_history,
    topic_statistics,
)
from repro.core.botdetect import (
    AccountActivity,
    account_activity_features,
    bot_scores,
    detect_bot_rings,
)
from repro.core.communities import (
    BridgeAccount,
    detect_communities,
    find_bridges,
    interaction_graph,
)
from repro.core.crowdsourcing import Validator, ValidatorPool, Vote, VoteContract
from repro.core.conduct import ConductContract
from repro.core.governance import PlatformGovernanceContract
from repro.core.media import MediaAssessment, MediaRegistryContract, MediaVerifier
from repro.core.process_chain import (
    PROCESS_STAGES,
    GraphShape,
    ProcessSupplyChainContract,
    graph_shape,
    process_chain_graph,
)
from repro.core.toolmarket import ToolMarketContract
from repro.core.ecosystem import (
    EcosystemAgent,
    EcosystemParams,
    EcosystemSimulator,
    TokenContract,
)
from repro.core.experts import ExpertFinder, ExpertScore
from repro.core.factualdb import PROMOTION_THRESHOLD, FactualDatabaseContract
from repro.core.identity import ROLES, IdentityContract
from repro.core.intervention import (
    ContainmentReport,
    CorrectionCampaign,
    PersonalizedCampaign,
    Receptivity,
    assign_receptivity,
    community_exposure,
    containment_report,
    correction_acceptance,
    select_messengers,
)
from repro.core.newsroom import ARTICLE_STATES, NewsRoomContract
from repro.core.platform import PublishedArticle, TrustingNewsPlatform
from repro.core.prediction import (
    FakeRiskPredictor,
    ViralityPredictor,
    author_history_features,
    early_cascade_features,
)
from repro.core.provenance import ParentCandidate, ProvenanceIndex
from repro.core.ranking import ArticleSignals, FactualnessRanker, RankedArticle, RankingWeights
from repro.core.source_rating import SourceRating, rate_distribution_platform
from repro.core.supplychain import (
    SupplyChainContract,
    SupplyChainGraph,
    TraceResult,
    build_supply_chain_graph,
    find_original_author,
    trace_to_factual_root,
)

__all__ = [
    "AccountReport",
    "TopicStatistics",
    "account_report",
    "propagation_timeline",
    "ranking_history",
    "topic_statistics",
    "AccountActivity",
    "account_activity_features",
    "bot_scores",
    "detect_bot_rings",
    "BridgeAccount",
    "detect_communities",
    "find_bridges",
    "interaction_graph",
    "ConductContract",
    "PlatformGovernanceContract",
    "MediaAssessment",
    "MediaRegistryContract",
    "MediaVerifier",
    "PROCESS_STAGES",
    "GraphShape",
    "ProcessSupplyChainContract",
    "graph_shape",
    "process_chain_graph",
    "ToolMarketContract",
    "PersonalizedCampaign",
    "Receptivity",
    "assign_receptivity",
    "correction_acceptance",
    "Validator",
    "ValidatorPool",
    "Vote",
    "VoteContract",
    "EcosystemAgent",
    "EcosystemParams",
    "EcosystemSimulator",
    "TokenContract",
    "ExpertFinder",
    "ExpertScore",
    "PROMOTION_THRESHOLD",
    "FactualDatabaseContract",
    "ROLES",
    "IdentityContract",
    "ContainmentReport",
    "CorrectionCampaign",
    "community_exposure",
    "containment_report",
    "select_messengers",
    "ARTICLE_STATES",
    "NewsRoomContract",
    "PublishedArticle",
    "TrustingNewsPlatform",
    "FakeRiskPredictor",
    "ViralityPredictor",
    "author_history_features",
    "early_cascade_features",
    "ParentCandidate",
    "ProvenanceIndex",
    "ArticleSignals",
    "FactualnessRanker",
    "RankedArticle",
    "RankingWeights",
    "SourceRating",
    "rate_distribution_platform",
    "SupplyChainContract",
    "SupplyChainGraph",
    "TraceResult",
    "build_supply_chain_graph",
    "find_original_author",
    "trace_to_factual_root",
]
