"""Explicit online-serving pipeline stages (the Sec. III-D data path).

Every online path through EnQode — one-off :meth:`EnQodeEncoder.encode`,
big-batch :meth:`EnQodeEncoder.encode_batch`, and the streaming
:class:`repro.service.EncodingService` — performs the same steps:

``route``
    Nearest-cluster assignment: match each sample to the trained cluster
    whose center is closest, yielding the warm-start parameters.
``finetune``
    Transfer-learned L-BFGS: fine-tune the warm start for the sample's
    own amplitudes through the drive the batch's size picks
    (:meth:`repro.core.batch.BatchLBFGSOptimizer.optimize_warm`).
``lower``
    Angles → backend circuit: fetch the cached parametric transpile
    template (:func:`repro.transpile.transpiler.transpile_template`)
    and bind the whole batch's angles through one
    :meth:`~repro.transpile.template.ParametricTemplate.bind_batch`.
    The template verifies itself against the full transpile when it is
    built, so this is the only lowering an online encode needs.

:class:`EncodePipeline` composes the stages; ``encode`` is
:meth:`EncodePipeline.run_reported` on a batch of size one, and the
service's micro-batch flushes are the same call on whatever
accumulated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ansatz import EnQodeAnsatz
from repro.core.batch import BatchFidelityObjective
from repro.core.clustering import nearest_centers
from repro.core.optimizer import OptimizationResult
from repro.core.transfer import TransferLearner, TransferOutcome
from repro.data.preprocess import validate_samples
from repro.errors import OptimizationError
from repro.hardware.backend import Backend
from repro.quantum.circuit import QuantumCircuit
from repro.transpile.metrics import CircuitMetrics
from repro.transpile.template import (
    GLOBAL_TEMPLATE_CACHE,
    ParametricTemplate,
)
from repro.transpile.transpiler import TranspileResult, transpile_template
from repro.utils.timing import Timer


@dataclass
class EncodedSample:
    """One online-embedded sample, ready for a downstream QML circuit."""

    target: np.ndarray
    theta: np.ndarray
    cluster_index: int
    ideal_fidelity: float
    transpiled: TranspileResult
    compile_time: float
    optimizer_iterations: int
    optimizer_evaluations: int = 0
    ansatz: EnQodeAnsatz | None = None
    logical: QuantumCircuit | None = None

    @property
    def logical_circuit(self) -> QuantumCircuit:
        """The bound logical ansatz circuit (built lazily on first use).

        Lowering never needs it — the template binds the transpiled
        circuit directly from the angles — so it is only built on
        request.
        """
        if self.logical is None:
            if self.ansatz is None:
                raise OptimizationError(
                    "EncodedSample has neither a prebuilt logical circuit "
                    "nor an ansatz to build one from"
                )
            self.logical = self.ansatz.circuit(self.theta)
        return self.logical

    @property
    def circuit(self) -> QuantumCircuit:
        """The hardware-native embedding circuit."""
        return self.transpiled.circuit

    def metrics(self) -> CircuitMetrics:
        return self.transpiled.metrics()

    def physical_target(self) -> np.ndarray:
        return self.transpiled.embed_target(self.target)


@dataclass
class RoutePlan:
    """Output of the *route* stage: cluster assignments + warm starts."""

    samples: np.ndarray
    indices: np.ndarray
    distances: np.ndarray
    theta0: np.ndarray

    @property
    def batch_size(self) -> int:
        return self.samples.shape[0]


class PreprocessStage:
    """Optional trainable classical embedding ahead of routing.

    Wraps a :class:`repro.data.trainable.TrainableEmbedding` (or any
    object with ``transform``/``input_size``/``output_size``): raw
    feature rows are mapped through the learned linear map and
    renormalized *before* cluster routing, so the encoder's circuits
    embed the learned feature space while ``fit``/``encode``/
    ``encode_batch``/the service keep their signatures — only the
    accepted input width changes (``input_size`` instead of
    ``2**num_qubits``).
    """

    def __init__(self, preprocessor) -> None:
        self.preprocessor = preprocessor

    @property
    def input_size(self) -> int:
        return self.preprocessor.input_size

    def run(self, samples: np.ndarray) -> np.ndarray:
        return self.preprocessor.transform(samples)


class RouteStage:
    """Nearest-cluster assignment over the trained centers (Sec. III-D)."""

    def __init__(self, transfer: TransferLearner) -> None:
        self.transfer = transfer

    def run(self, samples: np.ndarray) -> RoutePlan:
        """Match each unit-norm row to its nearest cluster center."""
        indices, distances = nearest_centers(samples, self.transfer.centers)
        return RoutePlan(
            samples=samples,
            indices=indices,
            distances=distances,
            theta0=self.transfer.cluster_thetas[indices],
        )


class FinetuneStage:
    """Transfer-learned L-BFGS fine-tune from the routed warm starts.

    Runs :meth:`repro.core.transfer.TransferLearner.finetune`, the one
    online fine-tune, whose drive the batch's size picks.
    """

    def __init__(self, transfer: TransferLearner) -> None:
        self.transfer = transfer

    def run(self, plan: RoutePlan) -> list[TransferOutcome]:
        return self.transfer.finetune(
            plan.samples, plan.indices, plan.distances
        )


class LowerStage:
    """Lower bound angles to the backend's native gate set.

    :meth:`template` returns the cached parametric template for the
    pipeline's (ansatz, backend, optimization_level); lowering a batch is
    then one vectorized angle re-bind
    (:meth:`repro.transpile.template.ParametricTemplate.bind_batch`),
    yielding lazy compact-IR circuits
    (:class:`repro.transpile.bound.BoundCircuit`: packed angle arrays per
    sample, instructions materialized only on demand).
    """

    def __init__(
        self, ansatz: EnQodeAnsatz, backend: Backend, optimization_level: int
    ) -> None:
        self.ansatz = ansatz
        self.backend = backend
        self.optimization_level = optimization_level

    def template(self) -> ParametricTemplate:
        return transpile_template(
            self.ansatz, self.backend, self.optimization_level
        )

    def template_reported(self) -> "tuple[ParametricTemplate, bool]":
        """The cached template plus whether the fetch was a cache hit.

        Concurrent service flushes attribute hits/misses per run through
        this flag instead of diffing the global cache counters (which
        races across threads).
        """
        return GLOBAL_TEMPLATE_CACHE.get_reported(
            self.ansatz, self.backend, self.optimization_level
        )


@dataclass
class PipelineRunReport:
    """Stage accounting for one :meth:`EncodePipeline.run_reported` run.

    The report is the pipeline's only accounting: each run returns its
    own, so overlapping runs (service worker-pool flushes sharing one
    pipeline) never share a counter, and a caller that wants totals
    sums the reports it received (the service's ledger does).  The
    timing buckets follow the stage split: ``route_seconds``
    (nearest-cluster assignment), ``finetune_seconds`` (the L-BFGS
    drive), ``lower_seconds`` (the template fetch, which builds the
    template on a cache miss) and ``bind_seconds`` (the batched
    template bind of the angles).  ``template_binds`` counts the rows
    bound through the template, and ``template_hit`` says whether the
    fetch hit the process-wide cache (``None`` for an empty run, which
    fetches nothing).  The process backend ships these fields in its
    wire response, so they keep their layout.
    """

    batch_size: int = 0
    route_seconds: float = 0.0
    finetune_seconds: float = 0.0
    bind_seconds: float = 0.0
    lower_seconds: float = 0.0
    template_binds: int = 0
    template_hit: "bool | None" = None


class EncodePipeline:
    """The composed route → finetune → lower online pipeline.

    Built once per fitted encoder (see
    :attr:`repro.core.encoder.EnQodeEncoder.pipeline`) and shared by the
    ``encode``/``encode_batch`` shims and the serving layer, so there is
    exactly one implementation of the online data path.
    """

    def __init__(
        self,
        ansatz: EnQodeAnsatz,
        backend: Backend,
        optimization_level: int,
        transfer: TransferLearner,
        preprocessor=None,
    ) -> None:
        self.ansatz = ansatz
        self.backend = backend
        if preprocessor is not None:
            if preprocessor.output_size != 2**ansatz.num_qubits:
                raise OptimizationError(
                    f"preprocessor emits {preprocessor.output_size}-wide "
                    f"rows but the ansatz embeds "
                    f"{2 ** ansatz.num_qubits} amplitudes"
                )
            self.preprocess = PreprocessStage(preprocessor)
        else:
            self.preprocess = None
        self.route = RouteStage(transfer)
        self.finetune = FinetuneStage(transfer)
        self.lower = LowerStage(ansatz, backend, optimization_level)
        #: Optional chaos hook (see :mod:`repro.service.resilience`):
        #: when set, every stage of :meth:`run_reported` fires its site
        #: through it before executing, letting tests inject stage
        #: exceptions and latency deterministically.  ``None`` costs
        #: one attribute check per stage.
        self.fault_injector = None

    @property
    def transfer(self) -> TransferLearner:
        return self.route.transfer

    @property
    def num_amplitudes(self) -> int:
        return 2**self.ansatz.num_qubits

    @property
    def input_size(self) -> int:
        """Accepted raw-sample width: the preprocessor's input when one
        is attached, else the embedding width itself."""
        if self.preprocess is not None:
            return self.preprocess.input_size
        return self.num_amplitudes

    def prepare(self, samples: np.ndarray) -> np.ndarray:
        """Validate, preprocess, and unit-normalize a sample matrix.

        Accepts ``(B, input_size)`` raw rows and rejects malformed ones
        through :func:`repro.data.preprocess.validate_samples` (an
        :class:`~repro.errors.OptimizationError`).  With a preprocessor
        attached the rows pass through the learned map first, so every
        downstream stage — and every caller of this pipeline — only ever
        sees ``(B, 2^n)`` unit rows.
        """
        samples = validate_samples(samples, self.input_size, OptimizationError)
        if samples.shape[0] == 0:
            return np.empty((0, self.num_amplitudes))
        if self.preprocess is not None:
            samples = self.preprocess.run(samples)
        return samples / np.linalg.norm(samples, axis=1, keepdims=True)

    def run_reported(
        self, samples: np.ndarray
    ) -> "tuple[list[EncodedSample], PipelineRunReport]":
        """Drive ``samples`` through every stage, with a run report.

        The whole batch lowers through one vectorized
        :meth:`ParametricTemplate.bind_batch` sweep over the cached
        template; each :attr:`EncodedSample.circuit` is a lazy compact-IR
        view (:class:`repro.transpile.bound.BoundCircuit`) that simulates
        straight off the packed bind arrays and materializes the same
        instruction stream as :func:`repro.transpile.transpiler.transpile`
        only when iterated.  Per-sample ``compile_time`` is an even share
        of the run's stage work (routing, fine-tune drive, template
        fetch — a one-time build on a cache miss — and the bind), so it
        sums back to the run's wall time.

        The returned :class:`PipelineRunReport` is this run's own stage
        accounting.  The stages are re-entrant (every run builds its own
        objective, optimizer and plan, and the template cache has its own
        lock), so the service's worker pool may run flushes through one
        pipeline concurrently.
        """
        samples = self.prepare(samples)
        report = PipelineRunReport(batch_size=samples.shape[0])
        if samples.shape[0] == 0:
            return [], report
        self._fire_fault("route")
        with Timer() as route_timer:
            plan = self.route.run(samples)
        self._fire_fault("finetune")
        with Timer() as tune_timer:
            outcomes = self.finetune.run(plan)
        report.route_seconds = route_timer.elapsed
        report.finetune_seconds = tune_timer.elapsed
        results = [outcome.result for outcome in outcomes]
        return self._lower(
            samples,
            plan.indices,
            [result.theta for result in results],
            [result.fidelity for result in results],
            report,
            results=results,
            fire_faults=True,
        )

    def run_degraded_reported(
        self, samples: np.ndarray
    ) -> "tuple[list[EncodedSample], PipelineRunReport]":
        """Route and lower only: the *finetune* stage is skipped entirely.

        This is the paper's offline/online split exploited as a
        graceful-degradation fallback (the service's ``"degrade"``
        overload policy): each sample binds its routed cluster's
        *centroid* parameters directly — the warm start the finetune
        stage would have polished — so the cost is one nearest-center
        assignment plus one template re-bind, microseconds instead of
        an L-BFGS drive.  The reported fidelity is the sample's true
        fidelity *at the centroid parameters* (evaluated exactly, one
        vectorized objective pass), so callers see honestly how much
        quality the shortcut gave up;
        ``optimizer_iterations == optimizer_evaluations == 0`` marks
        the skipped stage.  Deliberately a separate method rather than
        a flag on :meth:`run_reported` — the fault-free full path must
        stay byte-for-byte untouched.

        No fault sites fire here: this path *is* the fallback, and it
        runs inline on the submitting thread.
        """
        samples = self.prepare(samples)
        report = PipelineRunReport(batch_size=samples.shape[0])
        if samples.shape[0] == 0:
            return [], report
        with Timer() as route_timer:
            plan = self.route.run(samples)
            thetas = np.asarray(plan.theta0, dtype=float)
            objective = BatchFidelityObjective(
                self.transfer.symbolic, self.ansatz, samples
            )
            fidelities = objective.fidelities(thetas)
        report.route_seconds = route_timer.elapsed
        return self._lower(
            samples,
            plan.indices,
            thetas,
            [float(fidelity) for fidelity in fidelities],
            report,
            results=None,
            fire_faults=False,
        )

    def _lower(
        self,
        samples: np.ndarray,
        indices: np.ndarray,
        thetas,
        fidelities: list,
        report: PipelineRunReport,
        results: "list[OptimizationResult] | None",
        fire_faults: bool,
    ) -> "tuple[list[EncodedSample], PipelineRunReport]":
        """The shared lowering tail: template fetch, one ``bind_batch``,
        the :class:`EncodedSample` list and the run's report.

        ``thetas`` holds one angle row per sample; ``results`` carries
        the fine-tune's per-row optimizer counts (``None`` when the
        stage was skipped).
        """
        if fire_faults:
            self._fire_fault("lower")
        with Timer() as template_timer:
            # On a cold cache this pays the one-time structural transpile.
            template, report.template_hit = self.lower.template_reported()
        if fire_faults:
            self._fire_fault("bind")
        with Timer() as bind_timer:
            transpiled = template.bind_batch(thetas)
        report.lower_seconds = template_timer.elapsed
        report.bind_seconds = bind_timer.elapsed
        report.template_binds = len(transpiled)
        compile_time = (
            report.route_seconds
            + report.finetune_seconds
            + report.lower_seconds
            + report.bind_seconds
        ) / len(transpiled)
        if results is None:
            counts = [(0, 0)] * len(transpiled)
        else:
            counts = [(r.num_iterations, r.num_evaluations) for r in results]
        encoded = [
            EncodedSample(
                target=samples[row],
                theta=thetas[row],
                cluster_index=int(indices[row]),
                ideal_fidelity=fidelities[row],
                transpiled=transpiled[row],
                compile_time=compile_time,
                optimizer_iterations=iterations,
                optimizer_evaluations=evaluations,
                ansatz=self.ansatz,
            )
            for row, (iterations, evaluations) in enumerate(counts)
        ]
        return encoded, report

    def _fire_fault(self, site: str) -> None:
        injector = self.fault_injector
        if injector is not None:
            injector.fire(site)

    def __repr__(self) -> str:
        return (
            f"EncodePipeline({self.ansatz!r}, {self.backend.name!r}, "
            f"level={self.lower.optimization_level})"
        )


__all__ = [
    "EncodePipeline",
    "EncodedSample",
    "FinetuneStage",
    "LowerStage",
    "PipelineRunReport",
    "PreprocessStage",
    "RoutePlan",
    "RouteStage",
]
