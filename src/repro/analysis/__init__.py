"""Analysis layer: fault taxonomy, consensus checking and run metrics."""

from .consensus_check import ConsensusVerdict, DecidingTrace, check_consensus
from .metrics import (
    AlgorithmComplexity,
    GoodPeriodStats,
    RunMetrics,
    UnifiedTrace,
    algorithm_complexity_summary,
    good_period_stats,
    metrics_from_des,
    metrics_from_trace,
)
from .taxonomy import (
    APPLICABILITY,
    FaultClass,
    FaultConfiguration,
    classify,
    communication_predicates_applicable,
    failure_detectors_applicable,
)

__all__ = [
    "ConsensusVerdict",
    "DecidingTrace",
    "check_consensus",
    "RunMetrics",
    "UnifiedTrace",
    "metrics_from_trace",
    "metrics_from_des",
    "GoodPeriodStats",
    "good_period_stats",
    "AlgorithmComplexity",
    "algorithm_complexity_summary",
    "FaultClass",
    "FaultConfiguration",
    "classify",
    "APPLICABILITY",
    "failure_detectors_applicable",
    "communication_predicates_applicable",
]
