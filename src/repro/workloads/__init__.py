"""Workloads: scenario generators and the bound-vs-measured harness behind ``tests/claims``."""

from .adversarial import (
    ROUND_FAMILIES,
    build_round_adversary_batch,
)
from .batched import (
    CLASSIC_ALGORITHMS,
    build_classic_batch,
)
from .measure import (
    DEFAULT_BAD_BEHAVIOR,
    DEFAULT_BAD_NETWORK,
    Measurement,
    measure_arbitrary_p2otr,
    measure_corollary4,
    measure_ratio_noninitial_vs_initial,
    measure_theorem3,
    measure_theorem5,
    measure_theorem6,
    measure_theorem7,
)
from .scenarios import (
    FAULT_MODELS,
    STACKS,
    ScenarioResult,
    compare_stacks,
    run_aguilera,
    run_chandra_toueg,
    run_ho_stack,
)
from .theorems import (
    STEP_BACKEND_ALIASES,
    build_step_batch,
    build_translation_batch,
)

__all__ = [
    "Measurement",
    "DEFAULT_BAD_NETWORK",
    "DEFAULT_BAD_BEHAVIOR",
    "measure_theorem3",
    "measure_theorem5",
    "measure_corollary4",
    "measure_ratio_noninitial_vs_initial",
    "measure_theorem6",
    "measure_theorem7",
    "measure_arbitrary_p2otr",
    "FAULT_MODELS",
    "STACKS",
    "ScenarioResult",
    "run_ho_stack",
    "run_chandra_toueg",
    "run_aguilera",
    "compare_stacks",
    "ROUND_FAMILIES",
    "build_round_adversary_batch",
    "CLASSIC_ALGORITHMS",
    "build_classic_batch",
    "STEP_BACKEND_ALIASES",
    "build_step_batch",
    "build_translation_batch",
]
