"""Transpilation: lowering circuits onto hardware backends."""

from repro.transpile.bound import BoundCircuit, BoundCircuitBatch
from repro.transpile.decompositions import decompose_to_cx, expand_cx
from repro.transpile.euler import (
    PackedSynthesis,
    physical_1q_cost,
    synthesize_1q,
    synthesize_1q_packed_batch,
    zyz_decompose,
)
from repro.transpile.layout import Layout
from repro.transpile.metrics import (
    CircuitMetrics,
    circuit_metrics,
    schedule_duration,
)
from repro.transpile.passes import (
    cancel_adjacent_cx,
    merge_1q_runs,
    resynthesize_1q,
    translate_1q,
)
from repro.transpile.routing import RoutingResult, route
from repro.transpile.template import (
    GLOBAL_TEMPLATE_CACHE,
    ParametricTemplate,
    TemplateCache,
    transpile_template,
)
from repro.transpile.transpiler import TranspileResult, transpile

__all__ = [
    "BoundCircuit",
    "BoundCircuitBatch",
    "CircuitMetrics",
    "GLOBAL_TEMPLATE_CACHE",
    "Layout",
    "PackedSynthesis",
    "ParametricTemplate",
    "RoutingResult",
    "TemplateCache",
    "TranspileResult",
    "cancel_adjacent_cx",
    "circuit_metrics",
    "decompose_to_cx",
    "expand_cx",
    "merge_1q_runs",
    "physical_1q_cost",
    "resynthesize_1q",
    "route",
    "schedule_duration",
    "synthesize_1q",
    "synthesize_1q_packed_batch",
    "translate_1q",
    "transpile",
    "transpile_template",
    "zyz_decompose",
]
