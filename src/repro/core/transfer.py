"""Transfer learning: warm-started per-sample embedding (Sec. III-D).

A new sample is matched to its nearest cluster (Euclidean distance to the
centroids); that cluster's trained parameters initialize a short L-BFGS
fine-tune of the sample's own embedding.  Because the initialization is
already close, the online step is fast and its latency is uniform — the
property Fig. 9(a) measures.

:meth:`TransferLearner.finetune` is the one online fine-tune: it takes
precomputed cluster assignments (the pipeline's *route* stage output,
see :mod:`repro.core.pipeline`), builds one
:class:`~repro.core.batch.BatchFidelityObjective` over the rows and
runs :meth:`~repro.core.batch.BatchLBFGSOptimizer.optimize_warm`, whose
drive the batch's size picks.  :meth:`TransferLearner.embed` and
:meth:`TransferLearner.embed_batch` route the samples, then call it.
:meth:`TransferLearner.embed_cold` is ablation A5's random-start
contrast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ansatz import EnQodeAnsatz
from repro.core.batch import BatchFidelityObjective, BatchLBFGSOptimizer
from repro.core.clustering import nearest_centers
from repro.core.objective import FidelityObjective
from repro.core.optimizer import LBFGSOptimizer, OptimizationResult
from repro.core.symbolic import SymbolicState
from repro.errors import OptimizationError


@dataclass
class TransferOutcome:
    """Result of one warm-started sample embedding."""

    cluster_index: int
    cluster_distance: float
    result: OptimizationResult

    @property
    def theta(self) -> np.ndarray:
        return self.result.theta

    @property
    def fidelity(self) -> float:
        return self.result.fidelity


class TransferLearner:
    """Embeds samples by fine-tuning from pre-trained cluster parameters."""

    def __init__(
        self,
        ansatz: EnQodeAnsatz,
        symbolic: SymbolicState,
        centers: np.ndarray,
        cluster_thetas: np.ndarray,
        max_iterations: int = 80,
        gtol: float = 1e-9,
        ftol: float = 1e-12,
    ) -> None:
        centers = np.asarray(centers, dtype=float)
        cluster_thetas = np.asarray(cluster_thetas, dtype=float)
        if centers.shape[0] != cluster_thetas.shape[0]:
            raise OptimizationError(
                "one trained parameter vector per cluster center required"
            )
        if cluster_thetas.shape[1] != ansatz.num_parameters:
            raise OptimizationError("cluster theta size != ansatz parameters")
        self.ansatz = ansatz
        self.symbolic = symbolic
        self.centers = centers
        self.cluster_thetas = cluster_thetas
        self._optimizer = BatchLBFGSOptimizer(
            max_iterations=max_iterations, gtol=gtol, ftol=ftol
        )

    def embed(self, sample: np.ndarray) -> TransferOutcome:
        """Warm-start from the nearest cluster and fine-tune for ``sample``."""
        return self.embed_batch(np.asarray(sample, dtype=float).ravel())[0]

    def embed_batch(self, samples: np.ndarray) -> list[TransferOutcome]:
        """Warm-start and fine-tune a ``(B, 2^n)`` sample matrix at once.

        Matches every row to its nearest cluster in one vectorized pass,
        then runs :meth:`finetune`.  Returns one :class:`TransferOutcome`
        per row, in input order.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if samples.shape[0] == 0:
            return []
        indices, distances = nearest_centers(samples, self.centers)
        return self.finetune(samples, indices, distances)

    def finetune(
        self,
        samples: np.ndarray,
        indices: np.ndarray,
        distances: np.ndarray,
    ) -> list[TransferOutcome]:
        """Fine-tune rows whose cluster assignments are already known.

        This is the engine behind the pipeline's *finetune* stage (see
        :mod:`repro.core.pipeline`): routing has happened, warm starts are
        ``cluster_thetas[indices]``, and
        :meth:`~repro.core.batch.BatchLBFGSOptimizer.optimize_warm` picks
        the drive from the batch's size, so every caller of the stage
        (``encode``, ``encode_batch``,
        :class:`repro.service.EncodingService`) gets the same numerics
        for the same batch.  Each outcome carries the iterations and
        evaluations its own row received; wall time is an even share.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if samples.shape[0] == 0:
            return []
        objective = BatchFidelityObjective(self.symbolic, self.ansatz, samples)
        batch = self._optimizer.optimize_warm(
            objective, self.cluster_thetas[indices]
        )
        share = batch.time / batch.batch_size
        return [
            TransferOutcome(
                cluster_index=int(indices[b]),
                cluster_distance=float(distances[b]),
                result=OptimizationResult(
                    theta=batch.thetas[b],
                    fidelity=float(batch.fidelities[b]),
                    loss=float(batch.losses[b]),
                    num_iterations=int(batch.iterations[b]),
                    num_evaluations=int(batch.evaluations[b]),
                    time=share,
                    converged=bool(batch.converged[b]),
                    restarts_used=1,
                    history=[float(batch.fidelities[b])],
                ),
            )
            for b in range(batch.batch_size)
        ]

    def embed_cold(self, sample: np.ndarray, seed: int = 0) -> TransferOutcome:
        """Ablation A5 contrast: same iteration budget, random init."""
        sample = np.asarray(sample, dtype=float).ravel()
        objective = FidelityObjective(self.symbolic, self.ansatz, sample)
        cold = LBFGSOptimizer(
            max_iterations=self._optimizer.max_iterations,
            gtol=self._optimizer.gtol,
            ftol=self._optimizer.ftol,
            num_restarts=1,
            seed=seed,
        )
        rng_theta = np.random.default_rng(seed).uniform(
            -np.pi, np.pi, self.ansatz.num_parameters
        )
        result = cold.optimize(objective, theta0=rng_theta)
        return TransferOutcome(
            cluster_index=-1, cluster_distance=float("nan"), result=result
        )
