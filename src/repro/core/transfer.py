"""Transfer learning: warm-started per-sample embedding (Sec. III-D).

A new sample is matched to its nearest cluster (Euclidean distance to the
centroids); that cluster's trained parameters initialize a short L-BFGS
fine-tune of the sample's own embedding.  Because the initialization is
already close, the online step is fast and its latency is uniform — the
property Fig. 9(a) measures.

Three entry points: :meth:`TransferLearner.embed` fine-tunes one sample,
:meth:`TransferLearner.embed_batch` fine-tunes a whole sample matrix
concurrently — vectorized nearest-center matching, one
:class:`~repro.core.batch.BatchFidelityObjective`, and one batched
L-BFGS drive (see :mod:`repro.core.batch`) that returns the same
fidelities as the per-sample loop at a fraction of the cost — and
:meth:`TransferLearner.finetune` is the shared engine behind both: it
takes precomputed cluster assignments (the pipeline's *route* stage
output, see :mod:`repro.core.pipeline`) and dispatches one row to the
sequential optimizer and several rows to the batched drive that
``batch_engine`` selects (``EnQodeConfig.online_batch_engine``: the
per-row drive by default, or the stacked drive).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ansatz import EnQodeAnsatz
from repro.core.batch import BatchFidelityObjective, BatchLBFGSOptimizer
from repro.core.clustering import nearest_center, nearest_centers
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
        batch_engine: str = "stacked",
    ) -> None:
        centers = np.asarray(centers, dtype=float)
        cluster_thetas = np.asarray(cluster_thetas, dtype=float)
        if centers.shape[0] != cluster_thetas.shape[0]:
            raise OptimizationError(
                "one trained parameter vector per cluster center required"
            )
        if cluster_thetas.shape[1] != ansatz.num_parameters:
            raise OptimizationError("cluster theta size != ansatz parameters")
        if batch_engine not in ("stacked", "rows"):
            raise OptimizationError(
                f"batch_engine must be 'stacked' or 'rows', "
                f"got {batch_engine!r}"
            )
        self.ansatz = ansatz
        self.symbolic = symbolic
        self.centers = centers
        self.cluster_thetas = cluster_thetas
        #: Multi-row drive selection — see EnQodeConfig.online_batch_engine.
        self.batch_engine = batch_engine
        self._optimizer = LBFGSOptimizer(
            max_iterations=max_iterations, gtol=gtol, ftol=ftol, num_restarts=1
        )

    def embed(self, sample: np.ndarray) -> TransferOutcome:
        """Warm-start from the nearest cluster and fine-tune for ``sample``."""
        sample = np.asarray(sample, dtype=float).ravel()
        index, distance = nearest_center(sample, self.centers)
        return self._finetune_single(sample, index, distance)

    def embed_batch(self, samples: np.ndarray) -> list[TransferOutcome]:
        """Warm-start and fine-tune a ``(B, 2^n)`` sample matrix at once.

        Matches every row to its nearest cluster in one vectorized pass,
        then drives all fine-tunes concurrently through the batched
        drive ``batch_engine`` selects.  Returns one
        :class:`TransferOutcome` per row, in input order.  Each outcome's
        ``num_iterations`` is the per-sample attribution (batch steps +
        that sample's polish steps — comparable to a sequential run);
        evaluation counts and wall time are batch totals divided evenly.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if samples.shape[0] == 0:
            return []
        indices, distances = nearest_centers(samples, self.centers)
        return self._finetune_stacked(samples, indices, distances)

    def finetune(
        self,
        samples: np.ndarray,
        indices: np.ndarray,
        distances: np.ndarray,
    ) -> list[TransferOutcome]:
        """Fine-tune rows whose cluster assignments are already known.

        This is the engine behind the pipeline's *finetune* stage (see
        :mod:`repro.core.pipeline`): routing has happened, warm starts are
        ``cluster_thetas[indices]``.  A single row runs the sequential
        scipy L-BFGS exactly as :meth:`embed` always has; two or more
        rows run the batched drive selected by ``batch_engine`` —
        ``"rows"`` (the per-row vectorized engine, the measured
        warm-start winner and the ``EnQodeConfig`` default) or
        ``"stacked"`` (the historical scipy block-diagonal drive) —
        so every caller of the stage (``encode``, ``encode_batch``,
        :class:`repro.service.EncodingService`) gets the same
        configured numerics.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if samples.shape[0] == 0:
            return []
        if samples.shape[0] == 1:
            return [
                self._finetune_single(
                    samples[0], int(indices[0]), float(distances[0])
                )
            ]
        return self._finetune_stacked(samples, indices, distances)

    def _finetune_single(
        self, sample: np.ndarray, index: int, distance: float
    ) -> TransferOutcome:
        objective = FidelityObjective(self.symbolic, self.ansatz, sample)
        result = self._optimizer.optimize(
            objective, theta0=self.cluster_thetas[index]
        )
        return TransferOutcome(
            cluster_index=index, cluster_distance=distance, result=result
        )

    def _finetune_stacked(
        self,
        samples: np.ndarray,
        indices: np.ndarray,
        distances: np.ndarray,
    ) -> list[TransferOutcome]:
        objective = BatchFidelityObjective(self.symbolic, self.ansatz, samples)
        optimizer = BatchLBFGSOptimizer(
            max_iterations=self._optimizer.max_iterations,
            gtol=self._optimizer.gtol,
            ftol=self._optimizer.ftol,
        )
        theta0 = self.cluster_thetas[indices]
        if self.batch_engine == "rows":
            batch = optimizer.optimize_rows(objective, theta0)
        else:
            batch = optimizer.optimize(objective, theta0)
        # Evaluations are a batch total: attribute them evenly, spreading
        # the integer remainder over the first rows so the per-sample
        # counts sum back to the exact total (summed stats then match the
        # sequential path instead of inflating B-fold).
        base_evals, extra_evals = divmod(
            batch.num_evaluations, batch.batch_size
        )
        outcomes = []
        for b in range(batch.batch_size):
            result = OptimizationResult(
                theta=batch.thetas[b],
                fidelity=float(batch.fidelities[b]),
                loss=float(batch.losses[b]),
                num_iterations=batch.per_sample_iterations(b),
                num_evaluations=base_evals + (1 if b < extra_evals else 0),
                time=batch.time / batch.batch_size,
                converged=bool(batch.converged[b]),
                restarts_used=1,
                history=[float(batch.fidelities[b])],
            )
            outcomes.append(
                TransferOutcome(
                    cluster_index=int(indices[b]),
                    cluster_distance=float(distances[b]),
                    result=result,
                )
            )
        return outcomes

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
