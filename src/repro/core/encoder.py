"""The EnQode encoder: the paper's end-to-end amplitude-embedding pipeline.

Offline (:meth:`EnQodeEncoder.fit`, Sec. III-C): k-means the dataset with
the 0.95 nearest-cluster-fidelity rule (warm-starting each step of the
growing-``k`` search from the previous step's centers), then train the
fixed-shape ansatz against every cluster mean through one stacked
multi-restart symbolic L-BFGS drive over all means at once (the
Fig. 9(b) offline overhead).

Online (:meth:`EnQodeEncoder.encode`, Sec. III-D): map a sample to its
nearest cluster, fine-tune that cluster's parameters for the sample, bind
them into the ansatz, and transpile to the backend.  Every sample gets a
circuit with **identical shape** — identical depth, gate counts, and
noise exposure — which is EnQode's core claim.

Batched online (:meth:`EnQodeEncoder.encode_batch`): the fixed shape
also means every sample's *compilation* is the same work with different
Rz angles, so the batch path (i) fine-tunes all samples concurrently via
the batched optimizer in :mod:`repro.core.batch` and (ii) binds the
whole batch's angles through one vectorized ``bind_batch`` sweep over a
parametric template, transpiled **once** per (ansatz, backend,
optimization level) and cached
(:func:`repro.transpile.transpiler.transpile_template`).  This is the
amortized form of the paper's Fig. 9(a) millisecond-compile-latency
claim; the template is checked against the full transpile when it is
built, so its circuits are the ones a per-sample transpile would give.

Both entry points are thin shims over the shared stage pipeline of
:mod:`repro.core.pipeline` (route → finetune → lower): ``encode`` is a
pipeline run of batch size one and ``encode_batch`` a run over the
whole matrix.  New code that serves a *stream* of samples should prefer
:class:`repro.service.EncodingService`, which drives the same pipeline
through a micro-batcher; the shims stay for one-off and big-batch use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.ansatz import EnQodeAnsatz
from repro.core.batch import BatchFidelityObjective, BatchLBFGSOptimizer
from repro.core.clustering import (
    KMeans,
    min_nearest_fidelity,
    select_num_clusters,
)
from repro.core.config import EnQodeConfig
from repro.core.optimizer import OptimizationResult
from repro.core.pipeline import EncodedSample, EncodePipeline
from repro.core.symbolic import SymbolicState
from repro.core.transfer import TransferLearner
from repro.data.preprocess import (
    as_real_rows,
    prepare_amplitudes,
    validate_samples,
)
from repro.errors import OptimizationError
from repro.hardware.backend import Backend
from repro.utils.timing import Timer

__all__ = [
    "ClusterModel",
    "EncodedSample",
    "EnQodeEncoder",
    "OfflineReport",
]


@dataclass
class ClusterModel:
    """One trained cluster: its mean state and optimized parameters."""

    center: np.ndarray
    theta: np.ndarray
    fidelity: float
    training_time: float
    result: OptimizationResult


@dataclass
class OfflineReport:
    """Summary of :meth:`EnQodeEncoder.fit` (the Fig. 9(b) numbers)."""

    num_clusters: int
    total_time: float
    clustering_time: float
    training_time: float
    min_nearest_fidelity: float
    cluster_fidelities: list[float] = field(default_factory=list)
    cluster_times: list[float] = field(default_factory=list)

    @property
    def mean_cluster_fidelity(self) -> float:
        return float(np.mean(self.cluster_fidelities))


class EnQodeEncoder:
    """Cluster-train offline, transfer-learn online (the paper's system)."""

    def __init__(
        self,
        backend: Backend,
        config: EnQodeConfig | None = None,
        preprocessor=None,
    ) -> None:
        self.backend = backend
        self.config = config or EnQodeConfig()
        if 2**self.config.num_qubits > 2**backend.num_qubits:
            raise OptimizationError(
                f"{self.config.num_qubits}-qubit encoder cannot target "
                f"{backend.num_qubits}-qubit backend"
            )
        if (
            preprocessor is not None
            and preprocessor.output_size != self.config.num_amplitudes
        ):
            raise OptimizationError(
                f"preprocessor emits {preprocessor.output_size}-wide rows "
                f"but the encoder embeds "
                f"{self.config.num_amplitudes} amplitudes"
            )
        #: Optional trainable classical embedding (NQE-style, see
        #: :class:`repro.data.trainable.TrainableEmbedding`) applied to
        #: every raw sample before clustering/routing; when set, this
        #: encoder accepts ``input_size``-wide rows everywhere.
        self.preprocessor = preprocessor
        self.ansatz = EnQodeAnsatz(
            self.config.num_qubits,
            self.config.num_layers,
            self.config.entangler,
            self.config.alternate_orientation,
        )
        self.symbolic = SymbolicState.from_ansatz(self.ansatz)
        self.kmeans: KMeans | None = None
        self.cluster_models: list[ClusterModel] = []
        self.offline_report: OfflineReport | None = None
        self._transfer: TransferLearner | None = None
        self._pipeline: EncodePipeline | None = None

    # -- offline ------------------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return self._transfer is not None

    @property
    def input_size(self) -> int:
        """Raw-sample width this encoder accepts: the preprocessor's
        input width when one is attached, else ``2**num_qubits``."""
        if self.preprocessor is not None:
            return self.preprocessor.input_size
        return self.config.num_amplitudes

    def project(self, sample: np.ndarray) -> np.ndarray:
        """Map one raw sample to its unit-norm embedded vector.

        This is the vector the encoder's circuits actually embed — the
        preprocessed-and-renormalized row when a preprocessor is
        attached, the normalized sample itself otherwise.  Routing
        (:func:`repro.core.multiclass.nearest_class`, and
        :meth:`repro.service.EncoderRegistry.route` for encoders with a
        preprocessor) compares cluster centers against *this*, so
        per-class encoders with different preprocessors stay
        comparable.  Malformed input raises
        :class:`~repro.errors.OptimizationError` (see
        :func:`repro.data.preprocess.validate_samples`).
        """
        row = validate_samples(
            sample, self.input_size, OptimizationError, single=True
        )
        if self.preprocessor is not None:
            return self.preprocessor.transform(row)[0]
        return row[0] / np.linalg.norm(row[0])

    def _guard_preprocessor_kwargs(
        self, normalize: bool, pad_with: "float | None"
    ) -> None:
        if self.preprocessor is not None and (
            pad_with is not None or not normalize
        ):
            raise OptimizationError(
                "normalize=False / pad_with are raw-amplitude input "
                "conveniences and cannot be combined with a trainable "
                "preprocessor (which defines its own input width and "
                "renormalizes its output)"
            )

    def fit(
        self,
        samples: np.ndarray,
        *,
        normalize: bool = True,
        pad_with: "float | None" = None,
    ) -> OfflineReport:
        """Cluster ``samples`` and train one ansatz per cluster mean.

        ``normalize``/``pad_with`` are PennyLane ``AmplitudeEmbedding``
        input conveniences (see
        :func:`repro.data.preprocess.prepare_amplitudes`): with
        ``pad_with`` set, rows shorter than ``2^n`` are right-padded
        with that constant before embedding; with ``normalize=False``
        rows must already be unit-norm (a
        :class:`~repro.errors.DataError` otherwise).  The defaults
        reproduce the historical behaviour exactly — full-length rows,
        normalized here.

        All cluster means train through **one stacked multi-restart
        L-BFGS drive**
        (:meth:`repro.core.batch.BatchLBFGSOptimizer.optimize_restarts`):
        each restart evaluates every unconverged cluster in one BLAS
        pass, and clusters that reach ``config.target_fidelity`` drop
        out of later restarts.
        """
        self._guard_preprocessor_kwargs(normalize, pad_with)
        if self.preprocessor is not None:
            # The learned map runs before clustering, so the cluster
            # centers (and everything downstream) live in the embedded
            # feature space — exactly what routing will compare against.
            samples = self.preprocessor.transform(samples)
        elif pad_with is not None or not normalize:
            samples = prepare_amplitudes(
                samples,
                self.config.num_amplitudes,
                normalize=normalize,
                pad_with=pad_with,
            )
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != self.config.num_amplitudes:
            raise OptimizationError(
                f"samples must be (N, {self.config.num_amplitudes}), "
                f"got {samples.shape}"
            )
        norms = np.linalg.norm(samples, axis=1, keepdims=True)
        if np.any(norms < 1e-12):
            raise OptimizationError(
                "cannot fit on a zero sample row (amplitude embedding is "
                "undefined for the zero vector)"
            )
        samples = samples / norms

        with Timer() as cluster_timer:
            self.kmeans = select_num_clusters(
                samples,
                min_fidelity=self.config.min_cluster_fidelity,
                max_clusters=self.config.max_clusters,
                seed=self.config.seed,
                warm_start=self.config.warm_start_cluster_search,
            )
        centers = self.kmeans.centers_

        with Timer() as training_timer:
            models = self._train_clusters_batched(centers)
        self._install_cluster_models(models)
        self.offline_report = OfflineReport(
            num_clusters=len(self.cluster_models),
            total_time=cluster_timer.elapsed + training_timer.elapsed,
            clustering_time=cluster_timer.elapsed,
            training_time=training_timer.elapsed,
            min_nearest_fidelity=min_nearest_fidelity(samples, centers),
            cluster_fidelities=[m.fidelity for m in self.cluster_models],
            cluster_times=[m.training_time for m in self.cluster_models],
        )
        return self.offline_report

    def _train_clusters_batched(
        self, centers: np.ndarray
    ) -> list[ClusterModel]:
        """One stacked multi-restart drive over all cluster means.

        Per-cluster ``training_time``/iteration/evaluation numbers come
        from the batch result's attribution arrays (each cluster's own
        rows' iterations and evaluations, wall time an even share), so
        ``OfflineReport.cluster_times`` stays faithful: it sums back to
        the batched training wall time.
        """
        unit_centers = centers / np.linalg.norm(
            centers, axis=1, keepdims=True
        )
        objective = BatchFidelityObjective(
            self.symbolic, self.ansatz, unit_centers
        )
        optimizer = BatchLBFGSOptimizer(
            max_iterations=self.config.offline_max_iterations,
            gtol=self.config.gtol,
            ftol=self.config.ftol,
            polish_threshold=self.config.offline_polish_threshold,
            num_restarts=self.config.offline_restarts,
            target_fidelity=self.config.target_fidelity,
            seed=self.config.seed,
        )
        run = optimizer.optimize_restarts(objective)
        models = []
        for c in range(run.batch_size):
            result = OptimizationResult(
                theta=np.array(run.thetas[c]),
                fidelity=float(run.fidelities[c]),
                loss=float(run.losses[c]),
                num_iterations=int(run.cluster_iterations[c]),
                num_evaluations=int(run.cluster_evaluations[c]),
                time=float(run.cluster_times[c]),
                converged=bool(run.converged[c]),
                restarts_used=int(run.restarts_used[c]),
                history=run.histories[c],
            )
            models.append(
                ClusterModel(
                    center=unit_centers[c],
                    theta=result.theta,
                    fidelity=result.fidelity,
                    training_time=result.time,
                    result=result,
                )
            )
        return models

    def _install_cluster_models(self, models: list[ClusterModel]) -> None:
        """Adopt ``models`` as this encoder's fitted state: the one
        place the online transfer learner is built (by :meth:`fit` and
        by :func:`repro.core.serialization.encoder_from_dict`)."""
        self.cluster_models = models
        self._transfer = TransferLearner(
            self.ansatz,
            self.symbolic,
            centers=np.asarray([m.center for m in models]),
            cluster_thetas=np.asarray([m.theta for m in models]),
            max_iterations=self.config.online_max_iterations,
            gtol=self.config.gtol,
            ftol=self.config.ftol,
        )

    # -- online --------------------------------------------------------------------

    @property
    def pipeline(self) -> EncodePipeline:
        """The shared route → finetune → lower stage pipeline.

        Built lazily from the fitted transfer learner and rebuilt if the
        models are replaced (a refit, or a reload through
        :mod:`repro.core.serialization`).  ``encode``/``encode_batch``
        and :class:`repro.service.EncodingService` all execute this one
        object, so there is a single implementation of the online path.
        """
        if not self.is_fitted:
            raise OptimizationError(
                "EnQodeEncoder has no pipeline before fit (or reload)"
            )
        if (
            self._pipeline is None
            or self._pipeline.transfer is not self._transfer
        ):
            self._pipeline = EncodePipeline(
                self.ansatz,
                self.backend,
                self.config.optimization_level,
                self._transfer,
                preprocessor=self.preprocessor,
            )
        return self._pipeline

    def encode(
        self,
        sample: np.ndarray,
        *,
        normalize: bool = True,
        pad_with: "float | None" = None,
    ) -> EncodedSample:
        """Embed one sample via transfer learning (the "real-time" path).

        A :meth:`pipeline` run of batch size one: the one-row fine-tune
        drive, then one bind of the cached template, so the circuit
        is a lazy :class:`~repro.transpile.bound.BoundCircuit` as on
        every other path.  ``normalize``/``pad_with`` are the PennyLane
        ``AmplitudeEmbedding`` input conveniences of
        :func:`repro.data.preprocess.prepare_amplitudes`; the defaults
        embed full-length rows, normalized here.  Streaming callers
        should use :class:`repro.service.EncodingService` instead, which
        batches submissions.
        """
        if not self.is_fitted:
            raise OptimizationError("EnQodeEncoder.encode called before fit")
        self._guard_preprocessor_kwargs(normalize, pad_with)
        row = as_real_rows(sample, OptimizationError, single=True)
        if pad_with is not None or not normalize:
            row = prepare_amplitudes(
                row,
                self.config.num_amplitudes,
                normalize=normalize,
                pad_with=pad_with,
            )
        return self.pipeline.run_reported(row)[0][0]

    def encode_batch(
        self,
        samples: np.ndarray,
        *,
        normalize: bool = True,
        pad_with: "float | None" = None,
    ) -> list[EncodedSample]:
        """Embed a ``(B, 2^n)`` sample matrix through one pipeline run.

        * all ``B`` fine-tunes run concurrently over one
          :class:`~repro.core.batch.BatchFidelityObjective` (one BLAS
          pass per iteration), through the drive the batch's size picks
          (:meth:`~repro.core.batch.BatchLBFGSOptimizer.optimize_warm`);
        * the ansatz is transpiled once per (ansatz, backend,
          optimization_level) into a cached parametric template, and the
          whole batch re-binds its Rz angles through one vectorized
          :meth:`~repro.transpile.template.ParametricTemplate.bind_batch`
          sweep (stacked 2x2 composition + batched ZYZ resynthesis,
          instruction-identical to a full transpile of each sample).

        Cluster assignments match ``[self.encode(x) for x in samples]``;
        a single-row batch *is* ``encode`` (the one-row drive), while at
        ``B >= 2`` the batched drive reaches the same optimum only to
        within optimizer tolerance.  Per-sample
        ``compile_time`` is an even share of the run's wall time (batch
        optimization, the one-time template build on a cache miss, and
        the bind).  ``normalize``/``pad_with`` are the same
        ``AmplitudeEmbedding`` input conveniences as on :meth:`encode`.
        """
        if not self.is_fitted:
            raise OptimizationError(
                "EnQodeEncoder.encode_batch called before fit"
            )
        self._guard_preprocessor_kwargs(normalize, pad_with)
        if pad_with is not None or not normalize:
            samples = prepare_amplitudes(
                samples,
                self.config.num_amplitudes,
                normalize=normalize,
                pad_with=pad_with,
            )
        return self.pipeline.run_reported(samples)[0]

    # -- introspection ----------------------------------------------------------------

    def cluster_centers(self) -> np.ndarray:
        """Unit-norm cluster centers (available after fit *or* reload)."""
        if not self.cluster_models:
            raise OptimizationError("encoder not fitted")
        return np.asarray([model.center for model in self.cluster_models])

    def __repr__(self) -> str:
        state = (
            f"fitted, clusters={len(self.cluster_models)}"
            if self.is_fitted
            else "unfitted"
        )
        return f"EnQodeEncoder({self.ansatz!r}, {state})"
