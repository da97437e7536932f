"""Core of the reproduction: the transitive-sparsity GEMM engine and metrics.

``repro.core`` hosts the paper's primary contribution in functional form: a
bit-exact GEMM engine that executes through prefix-result reuse
(:mod:`repro.core.transitive_gemm`), the operation-count metrics used by the
design-space exploration (:mod:`repro.core.metrics`), and the ZR/TR/FR/PR node
classification of Sec. 5.2 (:mod:`repro.core.classification`).
"""

from .metrics import OpCounts, op_counts_from_result, op_counts_from_static_outcome
from .classification import NodeType, classify_nodes, classification_percentages
from .transitive_gemm import (
    BatchedGemmReport,
    GemmPlan,
    ScoreboardCacheInfo,
    TransitiveGemmEngine,
    exact_matmul,
    transitive_gemm,
)

__all__ = [
    "OpCounts",
    "op_counts_from_result",
    "op_counts_from_static_outcome",
    "NodeType",
    "classify_nodes",
    "classification_percentages",
    "BatchedGemmReport",
    "GemmPlan",
    "ScoreboardCacheInfo",
    "TransitiveGemmEngine",
    "exact_matmul",
    "transitive_gemm",
]
