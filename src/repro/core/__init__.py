"""EnQode core: ansatz, symbolic engine, optimizer, clustering, encoder."""

from repro.core.ansatz import SYMBOLIC_ENTANGLERS, EnQodeAnsatz
from repro.core.batch import (
    BatchFidelityObjective,
    BatchLBFGSOptimizer,
    BatchOptimizationResult,
    BatchRestartResult,
    VQCObjective,
)
from repro.core.clustering import (
    KMeans,
    dot_fidelity,
    min_nearest_fidelity,
    nearest_center,
    nearest_centers,
    select_num_clusters,
)
from repro.core.config import EnQodeConfig, QMLConfig, ServiceConfig
from repro.core.encoder import (
    ClusterModel,
    EncodedSample,
    EnQodeEncoder,
    OfflineReport,
)
from repro.core.multiclass import PerClassEnQode, nearest_class
from repro.core.objective import FidelityObjective
from repro.core.optimizer import LBFGSOptimizer, OptimizationResult
from repro.core.pipeline import (
    EncodePipeline,
    FinetuneStage,
    LowerStage,
    PreprocessStage,
    RoutePlan,
    RouteStage,
)
from repro.core.serialization import (
    encoder_from_dict,
    encoder_to_dict,
    load_encoder,
    save_encoder,
)
from repro.core.symbolic import SymbolicState, build_symbolic
from repro.core.transfer import TransferLearner, TransferOutcome

__all__ = [
    "SYMBOLIC_ENTANGLERS",
    "BatchFidelityObjective",
    "BatchLBFGSOptimizer",
    "BatchOptimizationResult",
    "BatchRestartResult",
    "VQCObjective",
    "ClusterModel",
    "EncodePipeline",
    "FinetuneStage",
    "LowerStage",
    "PreprocessStage",
    "RoutePlan",
    "RouteStage",
    "EnQodeAnsatz",
    "EnQodeConfig",
    "QMLConfig",
    "ServiceConfig",
    "EnQodeEncoder",
    "EncodedSample",
    "FidelityObjective",
    "KMeans",
    "LBFGSOptimizer",
    "OfflineReport",
    "OptimizationResult",
    "PerClassEnQode",
    "SymbolicState",
    "TransferLearner",
    "TransferOutcome",
    "build_symbolic",
    "dot_fidelity",
    "encoder_from_dict",
    "encoder_to_dict",
    "load_encoder",
    "min_nearest_fidelity",
    "nearest_center",
    "nearest_class",
    "nearest_centers",
    "save_encoder",
    "select_num_clusters",
]
