"""Per-figure experiment runners reproducing the paper's evaluation.

Each ``run_fig*`` function regenerates the data behind one figure of the
paper (Sec. V) on the synthetic dataset stand-ins:

========  ==================================================================
Fig. 6    circuit depth + total physical gates, Baseline vs EnQode
Fig. 7    physical one-qubit + two-qubit gate counts
Fig. 8a   ideal-simulation state fidelity
Fig. 8b   noisy-simulation state fidelity (FakeBrisbane noise model)
Fig. 9a   online compilation time (mean and spread)
Fig. 9b   EnQode offline vs online compilation time
========  ==================================================================

The sweeps share a lazily-built :class:`ExperimentContext` (backend
segment, datasets, one fitted encoder per dataset) so a full run only
pays the offline-training cost once per dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baseline.state_preparation import BaselineStatePreparation
from repro.core.config import EnQodeConfig
from repro.core.encoder import EnQodeEncoder
from repro.data.datasets import DATASET_NAMES, load_dataset
from repro.hardware.backend import brisbane_linear_segment
from repro.quantum.density_matrix import DensityMatrix
from repro.quantum.simulator import DensityMatrixSimulator
from repro.quantum.statevector import simulate_statevector
from repro.quantum.states import state_fidelity


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for all figure experiments (scaled for laptop runs)."""

    datasets: tuple = DATASET_NAMES
    num_classes: int = 5
    samples_per_class: int = 80
    num_metric_samples: int = 12
    num_fidelity_samples: int = 10
    num_noisy_samples: int = 5
    num_qubits: int = 8
    num_layers: int = 8
    backend_seed: int = 42
    data_seed: int = 0
    enqode_seed: int = 7


@dataclass
class Stats:
    """Mean/std/min/max summary of a per-sample series."""

    values: list[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values)) if self.values else float("nan")

    @property
    def std(self) -> float:
        return float(np.std(self.values)) if self.values else float("nan")

    @property
    def min(self) -> float:
        return float(np.min(self.values)) if self.values else float("nan")

    @property
    def max(self) -> float:
        return float(np.max(self.values)) if self.values else float("nan")

    def as_row(self) -> dict[str, float]:
        return {
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "max": self.max,
        }


class ExperimentContext:
    """Backend + datasets + fitted per-dataset encoders, built once."""

    def __init__(self, config: ExperimentConfig | None = None) -> None:
        self.config = config or ExperimentConfig()
        self.backend = brisbane_linear_segment(
            self.config.num_qubits, seed=self.config.backend_seed
        )
        self.baseline = BaselineStatePreparation(self.backend)
        self.datasets = {}
        self.encoders: dict[str, EnQodeEncoder] = {}
        self.eval_samples: dict[str, np.ndarray] = {}
        for name in self.config.datasets:
            dataset = load_dataset(
                name,
                num_classes=self.config.num_classes,
                samples_per_class=self.config.samples_per_class,
                num_features=2**self.config.num_qubits,
                seed=self.config.data_seed,
            )
            self.datasets[name] = dataset
            # Offline training is per dataset and class (Sec. III-C); the
            # experiments evaluate on the first sampled class.
            label = int(dataset.classes()[0])
            block = dataset.class_slice(label)
            encoder = EnQodeEncoder(
                self.backend,
                EnQodeConfig(
                    num_qubits=self.config.num_qubits,
                    num_layers=self.config.num_layers,
                    seed=self.config.enqode_seed,
                ),
            )
            encoder.fit(block)
            # The one-time structural transpile of the parametric
            # template is deployment setup, like the fit; building it
            # here keeps it out of the first sample's online
            # compile_time (Fig. 9a measures per-sample online work).
            encoder.pipeline.lower.template()
            self.encoders[name] = encoder
            self.eval_samples[name] = block

    def samples(self, name: str, count: int) -> np.ndarray:
        block = self.eval_samples[name]
        stride = max(1, block.shape[0] // count)
        return block[::stride][:count]


# -----------------------------------------------------------------------------
# Shared compile sweep (Figs. 6, 7, 9a)
# -----------------------------------------------------------------------------


def circuit_metrics_sweep(context: ExperimentContext) -> dict:
    """Compile ``num_metric_samples`` per dataset with both methods.

    Returns ``{dataset: {method: {metric: Stats}}}`` with metrics
    ``depth``, ``total_gates``, ``one_qubit_gates``, ``two_qubit_gates``,
    and ``compile_time``.
    """
    metric_names = (
        "depth",
        "total_gates",
        "one_qubit_gates",
        "two_qubit_gates",
        "compile_time",
    )
    results: dict = {}
    for name in context.config.datasets:
        per_method = {
            method: {metric: Stats() for metric in metric_names}
            for method in ("baseline", "enqode")
        }
        for sample in context.samples(name, context.config.num_metric_samples):
            prepared = context.baseline.prepare(sample)
            metrics = prepared.metrics()
            rows = metrics.as_row()
            for metric in metric_names[:-1]:
                per_method["baseline"][metric].values.append(rows[metric])
            per_method["baseline"]["compile_time"].values.append(
                prepared.compile_time
            )

            encoded = context.encoders[name].encode(sample)
            rows = encoded.metrics().as_row()
            for metric in metric_names[:-1]:
                per_method["enqode"][metric].values.append(rows[metric])
            per_method["enqode"]["compile_time"].values.append(
                encoded.compile_time
            )
        results[name] = per_method
    return results


def run_fig6(context: ExperimentContext, sweep: dict | None = None) -> dict:
    """Circuit depth and total gate count (paper Fig. 6)."""
    sweep = sweep or circuit_metrics_sweep(context)
    return {
        name: {
            method: {
                "depth": stats["depth"],
                "total_gates": stats["total_gates"],
            }
            for method, stats in methods.items()
        }
        for name, methods in sweep.items()
    }


def run_fig7(context: ExperimentContext, sweep: dict | None = None) -> dict:
    """Physical 1q and 2q gate counts (paper Fig. 7)."""
    sweep = sweep or circuit_metrics_sweep(context)
    return {
        name: {
            method: {
                "one_qubit_gates": stats["one_qubit_gates"],
                "two_qubit_gates": stats["two_qubit_gates"],
            }
            for method, stats in methods.items()
        }
        for name, methods in sweep.items()
    }


def run_fig9a(context: ExperimentContext, sweep: dict | None = None) -> dict:
    """Online compilation times (paper Fig. 9a)."""
    sweep = sweep or circuit_metrics_sweep(context)
    return {
        name: {
            method: {"compile_time": stats["compile_time"]}
            for method, stats in methods.items()
        }
        for name, methods in sweep.items()
    }


# -----------------------------------------------------------------------------
# Fidelity experiments (Fig. 8)
# -----------------------------------------------------------------------------


def run_fig8a(context: ExperimentContext) -> dict:
    """Ideal-simulation state fidelity (paper Fig. 8a)."""
    results: dict = {}
    for name in context.config.datasets:
        baseline_stats, enqode_stats = Stats(), Stats()
        for sample in context.samples(
            name, context.config.num_fidelity_samples
        ):
            prepared = context.baseline.prepare(sample)
            psi = simulate_statevector(prepared.circuit)
            baseline_stats.values.append(
                state_fidelity(psi, prepared.physical_target())
            )
            encoded = context.encoders[name].encode(sample)
            psi = simulate_statevector(encoded.circuit)
            enqode_stats.values.append(
                state_fidelity(psi, encoded.physical_target())
            )
        results[name] = {"baseline": baseline_stats, "enqode": enqode_stats}
    return results


def run_fig8b(context: ExperimentContext) -> dict:
    """Noisy-simulation state fidelity under FakeBrisbane noise (Fig. 8b)."""
    noise_model = context.backend.noise_model()
    simulator = DensityMatrixSimulator(noise_model)
    results: dict = {}
    for name in context.config.datasets:
        baseline_stats, enqode_stats = Stats(), Stats()
        for sample in context.samples(name, context.config.num_noisy_samples):
            prepared = context.baseline.prepare(sample)
            rho = simulator.run(prepared.circuit)
            baseline_stats.values.append(
                state_fidelity(rho, prepared.physical_target())
            )
            encoded = context.encoders[name].encode(sample)
            rho = simulator.run(encoded.circuit)
            enqode_stats.values.append(
                state_fidelity(rho, encoded.physical_target())
            )
        results[name] = {
            "baseline": baseline_stats,
            "enqode": enqode_stats,
            "improvement": (
                enqode_stats.mean / baseline_stats.mean
                if baseline_stats.mean > 0
                else float("inf")
            ),
        }
    return results


def run_fig9b(context: ExperimentContext) -> dict:
    """Offline (per dataset+class) vs online compile time (Fig. 9b)."""
    results: dict = {}
    for name in context.config.datasets:
        encoder = context.encoders[name]
        report = encoder.offline_report
        online = Stats()
        for sample in context.samples(name, context.config.num_metric_samples):
            online.values.append(encoder.encode(sample).compile_time)
        results[name] = {
            "offline_total": report.total_time,
            "offline_clustering": report.clustering_time,
            "offline_training": report.training_time,
            "num_clusters": report.num_clusters,
            "online": online,
        }
    return results


def noisy_state(context, circuit) -> DensityMatrix:
    """Convenience: simulate one circuit under the context's noise model."""
    return DensityMatrixSimulator(context.backend.noise_model()).run(circuit)
