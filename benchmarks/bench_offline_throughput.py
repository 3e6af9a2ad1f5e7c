"""Offline training throughput: sequential per-cluster loop vs batched fit.

Measures ``EnQodeEncoder.fit`` wall time at 4-8 qubits on paper-style
synthetic MNIST PCA data, quantifying the PR-2 tentpole: the stacked
multi-restart offline trainer (per-row vectorized L-BFGS + two-wave
restart schedule, see :mod:`repro.core.batch`) must deliver >= 3x fit
speedup over the sequential per-cluster loop at 4-6 qubits on a
>= 8-cluster dataset, with per-cluster fidelities matching to <= 1e-9 —
the Fig. 9(b) offline-overhead trajectory.  The sequential loop is the
bench-side baseline :class:`SequentialFitEncoder`.

Runs standalone
(``PYTHONPATH=src python benchmarks/bench_offline_throughput.py``),
as a CI smoke check (``... bench_offline_throughput.py --smoke`` — one
reduced 4-qubit scenario, no artifact write, so the script cannot rot),
or under pytest (``pytest benchmarks/bench_offline_throughput.py``).
The full run writes the ``BENCH_offline_throughput.json`` artifact at
the repo root so future PRs can track the trajectory.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

import numpy as np

from repro.core import (
    EnQodeConfig,
    EnQodeEncoder,
    FidelityObjective,
    LBFGSOptimizer,
)
from repro.core.encoder import ClusterModel
from repro.data import load_dataset
from repro.hardware import brisbane_linear_segment

ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_offline_throughput.json"
)

#: (qubits, samples_per_class) scenarios — the Fig. 9(b) axes.  The
#: speedup gate applies at the 4- and 6-qubit standard size; the paper-
#: scale 8-qubit row is reported for the trajectory but only gated on
#: equivalence (at 256 amplitudes the objective flops dominate both
#: paths, so batching "only" removes the per-cluster driver overhead —
#: ~1.4x, honest but below the small-scale gate).
SCENARIOS = (
    (4, 30),
    (4, 60),
    (6, 30),
    (6, 60),
    (8, 60),  # PCA to 256 features needs >= 256 samples
)
GATED = ((4, 60), (6, 60))
MIN_SPEEDUP = 3.0
REPETITIONS = 3


class SequentialFitEncoder(EnQodeEncoder):
    """Baseline: trains the cluster means one at a time.

    One ``LBFGSOptimizer`` (seeded from the config) runs over every
    center in turn, so its restart draws come from the RNG stream the
    stacked drive reproduces; clustering is the encoder's own.
    """

    def _train_clusters_batched(self, centers):
        optimizer = LBFGSOptimizer(
            max_iterations=self.config.offline_max_iterations,
            gtol=self.config.gtol,
            ftol=self.config.ftol,
            num_restarts=self.config.offline_restarts,
            target_fidelity=self.config.target_fidelity,
            seed=self.config.seed,
        )
        models = []
        for center in centers:
            unit_center = center / np.linalg.norm(center)
            objective = FidelityObjective(
                self.symbolic, self.ansatz, unit_center
            )
            result = optimizer.optimize(objective)
            models.append(
                ClusterModel(
                    center=unit_center,
                    theta=result.theta,
                    fidelity=result.fidelity,
                    training_time=result.time,
                    result=result,
                )
            )
        return models


def _config(num_qubits: int) -> EnQodeConfig:
    return EnQodeConfig(
        num_qubits=num_qubits,
        num_layers=8,
        offline_restarts=6,
        offline_max_iterations=1500,
        max_clusters=64,
        min_cluster_fidelity=0.999,
        seed=7,
    )


def _fit_once(num_qubits: int, amplitudes: np.ndarray, batched: bool):
    encoder_cls = EnQodeEncoder if batched else SequentialFitEncoder
    encoder = encoder_cls(
        brisbane_linear_segment(num_qubits), _config(num_qubits)
    )
    start = time.perf_counter()
    report = encoder.fit(amplitudes)
    elapsed = time.perf_counter() - start
    return encoder, report, elapsed


def run_scenario(num_qubits: int, samples_per_class: int) -> dict:
    dataset = load_dataset(
        "mnist",
        samples_per_class=samples_per_class,
        num_features=2**num_qubits,
        seed=0,
    )
    amplitudes = dataset.amplitudes
    # Warm both paths once (numpy/scipy caches), then take best-of-N —
    # offline fits are long enough that min is the noise-robust choice.
    _fit_once(num_qubits, amplitudes, True)
    _fit_once(num_qubits, amplitudes, False)
    batched_times, sequential_times = [], []
    batched = sequential = None
    for _ in range(REPETITIONS):
        batched, b_report, b_time = _fit_once(num_qubits, amplitudes, True)
        batched_times.append(b_time)
        sequential, s_report, s_time = _fit_once(
            num_qubits, amplitudes, False
        )
        sequential_times.append(s_time)
    fid_b = np.asarray(b_report.cluster_fidelities)
    fid_s = np.asarray(s_report.cluster_fidelities)
    restarts_equal = [
        m.result.restarts_used for m in batched.cluster_models
    ] == [m.result.restarts_used for m in sequential.cluster_models]
    batched_fit = float(min(batched_times))
    sequential_fit = float(min(sequential_times))
    return {
        "num_samples": int(amplitudes.shape[0]),
        "num_clusters": int(b_report.num_clusters),
        "sequential_fit_seconds": sequential_fit,
        "batched_fit_seconds": batched_fit,
        "fit_speedup": sequential_fit / batched_fit,
        "sequential_training_seconds": float(s_report.training_time),
        "batched_training_seconds": float(b_report.training_time),
        "training_speedup": float(
            s_report.training_time / b_report.training_time
        ),
        "clustering_seconds": float(b_report.clustering_time),
        "max_fidelity_diff": float(np.abs(fid_b - fid_s).max()),
        "min_fidelity_advantage": float((fid_b - fid_s).min()),
        "mean_cluster_fidelity": float(fid_b.mean()),
        "mean_cluster_fidelity_sequential": float(fid_s.mean()),
        "restarts_equal": bool(restarts_equal),
    }


def run_benchmark(scenarios=SCENARIOS) -> dict:
    return {
        f"{q}q_{spc}spc": run_scenario(q, spc) for q, spc in scenarios
    }


def publish(results: dict) -> None:
    """Print the results table (the artifact is written separately)."""
    header = (
        f"{'scenario':>10} {'K':>4} {'seq fit s':>10} {'batch fit s':>11} "
        f"{'speedup':>8} {'fid diff':>10}"
    )
    print("\n" + header)
    for name, row in results.items():
        print(
            f"{name:>10} {row['num_clusters']:>4} "
            f"{row['sequential_fit_seconds']:>10.3f} "
            f"{row['batched_fit_seconds']:>11.3f} "
            f"{row['fit_speedup']:>7.1f}x {row['max_fidelity_diff']:>10.1e}"
        )


def write_artifact(results: dict) -> None:
    """Write ``BENCH_*.json``; full runs call this after every gate."""
    ARTIFACT.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"artifact: {ARTIFACT}")


def test_offline_throughput():
    results = run_benchmark()
    publish(results)
    for row in results.values():
        assert row["num_clusters"] >= 8
        # Off-gate scales may see different local optima on individual
        # cold-start restarts (in either direction — that's the restart
        # lottery, not a defect), so only mean quality is asserted.
        assert row["mean_cluster_fidelity"] > (
            row["mean_cluster_fidelity_sequential"] - 0.05
        )
    # Strict gate at the 4- and 6-qubit standard scenarios: numerically
    # equivalent cluster models (same restart bookkeeping, same
    # fidelities) and >= 3x whole-fit speedup.
    for qubits, spc in GATED:
        gated = results[f"{qubits}q_{spc}spc"]
        assert gated["restarts_equal"]
        assert gated["max_fidelity_diff"] < 1e-9
        assert gated["fit_speedup"] >= MIN_SPEEDUP
        assert gated["training_speedup"] >= MIN_SPEEDUP
    write_artifact(results)


def smoke() -> None:
    """CI guard: one reduced 4-qubit scenario, no artifact write."""
    results = {"4q_30spc_smoke": run_scenario(4, 30)}
    publish(results)
    row = results["4q_30spc_smoke"]
    assert row["num_clusters"] >= 8
    assert row["max_fidelity_diff"] < 1e-9
    assert row["restarts_equal"]
    print("offline throughput smoke: ok")


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        smoke()
    else:
        test_offline_throughput()
