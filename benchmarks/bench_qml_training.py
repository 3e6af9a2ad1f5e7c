"""QML training throughput: per-sample reference engine vs batched engine.

Measures wall time of VQC classifier **training + prediction** at the
paper-adjacent 6- and 8-qubit scales.  Both engines run the *same* SPSA
trajectory (shared RNG stream, identical perturbation and minibatch
draws), so this is a pure execution-engine comparison:

* the **reference engine** (:class:`ReferenceClassifier`, defined
  here) evolves one embedded state at a time through the eager logical
  circuit (``VariationalClassifier.expectations_z0``);
* the **batched engine** (``QMLClassifier``) compiles the ansatz once
  into a :class:`~repro.transpile.template.ParametricTemplate`, binds
  each SPSA step's theta pair as one ``(2, num_parameters)`` matrix
  through the compact IR, and propagates *all* training states in one
  stacked trailing-batch-axis walk (:class:`repro.core.batch.
  VQCObjective`).

On top of the end-to-end timings the bench asserts numerical
equivalence: per-sample margins at the initial theta agree to <= 1e-12,
the trained parameter vectors agree to <= 1e-9, and train/holdout
accuracies match exactly (same trajectory, same decisions).

Runs standalone (``PYTHONPATH=src python benchmarks/bench_qml_training.py``),
as a CI smoke check (``... --smoke`` — one reduced 6-qubit scenario with
conservative gates, no artifact write), or under pytest; the full run
writes the ``BENCH_qml_training.json`` artifact at the repo root.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

import numpy as np

from repro.core import QMLConfig
from repro.qml import QMLClassifier
from repro.qml.model import _ReferenceObjective

ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_qml_training.json"
)

#: (train batch, holdout batch, SPSA steps) per gated qubit count.
SCENARIOS = {6: (32, 128, 30), 8: (24, 96, 20)}
#: Acceptance gates: minimum train+predict speedup of the batched engine
#: over the per-sample reference loop (ISSUE floor is 3x; measured ~7-10x).
GATED_SPEEDUPS = {6: 3.0, 8: 3.0}
#: Both engines replay the same SPSA trajectory, so accuracies must not
#: merely be close — any drift means the engines diverged.
MAX_ACCURACY_GAP = 0.0
MAX_MARGIN_DIFF = 1e-12
MAX_THETA_DIFF = 1e-9
NUM_LAYERS = 2
REPETITIONS = 3


def _labelled_states(
    rng: np.random.Generator, num_qubits: int, batch: int
) -> tuple[np.ndarray, np.ndarray]:
    """A separable-but-noisy embedded problem: class 0 clusters near
    ``|0...0>``, class 1 near ``|10...0>`` (qubit 0 flipped), each blurred
    by complex Gaussian noise and renormalized — stand-ins for the unit
    statevectors the EnQode encoder emits."""
    dim = 2**num_qubits
    labels = rng.integers(0, 2, size=batch)
    states = np.zeros((batch, dim), dtype=complex)
    states[np.arange(batch), np.where(labels == 0, 0, dim // 2)] = 1.0
    states += 0.2 * (
        rng.normal(size=(batch, dim)) + 1j * rng.normal(size=(batch, dim))
    )
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    return states, labels


class ReferenceClassifier(QMLClassifier):
    """The per-sample baseline: the same SPSA loop and RNG stream, with
    every state evolved one at a time through the eager circuit."""

    def _objective(self, states, labels):
        return _ReferenceObjective(
            self.vqc, states, labels, self.config.margin
        )

    def decision_values(self, states):
        return self.vqc.expectations_z0(states, self.theta)


ENGINES = {"reference": ReferenceClassifier, "batched": QMLClassifier}


def _classifier(num_qubits: int, num_steps: int, engine: str) -> QMLClassifier:
    config = QMLConfig(
        num_qubits=num_qubits,
        num_layers=NUM_LAYERS,
        num_steps=num_steps,
        seed=3,
    )
    return ENGINES[engine](config=config)


def _check_equivalence(
    num_qubits: int, num_steps: int, states, labels, holdout
) -> dict:
    """Margins at the shared initial theta, and full-trajectory agreement."""
    models = {
        engine: _classifier(num_qubits, num_steps, engine)
        for engine in ("reference", "batched")
    }
    margins = {
        engine: model._margins(states, labels, model.theta)
        for engine, model in models.items()
    }
    for model in models.values():
        model.fit(states, labels)
    return {
        "max_margin_diff": float(
            np.abs(margins["reference"] - margins["batched"]).max()
        ),
        "max_theta_diff": float(
            np.abs(models["reference"].theta - models["batched"].theta).max()
        ),
        "train_accuracy_gap": float(
            abs(
                models["reference"].accuracy(states, labels)
                - models["batched"].accuracy(states, labels)
            )
        ),
        "predictions_equal": bool(
            np.array_equal(
                models["reference"].predict(holdout),
                models["batched"].predict(holdout),
            )
        ),
    }


def run_scenario(
    num_qubits: int,
    train_batch: int,
    holdout_batch: int,
    num_steps: int,
    repetitions: int = REPETITIONS,
) -> dict:
    rng = np.random.default_rng(num_qubits)
    states, labels = _labelled_states(rng, num_qubits, train_batch)
    holdout, _ = _labelled_states(rng, num_qubits, holdout_batch)

    timings: dict[str, dict[str, float]] = {}
    accuracies: dict[str, float] = {}
    for engine in ("reference", "batched"):
        # Warm the engine (template build, numpy caches) off the clock.
        _classifier(num_qubits, 1, engine).fit(states[:2], labels[:2])
        fit_times, predict_times = [], []
        for _ in range(repetitions):
            # A fresh model per repetition replays the identical SPSA
            # stream, so the median is over like-for-like trajectories.
            model = _classifier(num_qubits, num_steps, engine)
            start = time.perf_counter()
            model.fit(states, labels)
            fit_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            model.predict(holdout)
            predict_times.append(time.perf_counter() - start)
        timings[engine] = {
            "fit_seconds": float(np.median(fit_times)),
            "predict_seconds": float(np.median(predict_times)),
        }
        accuracies[engine] = float(model.accuracy(states, labels))

    reference = timings["reference"]
    batched = timings["batched"]
    total_ref = reference["fit_seconds"] + reference["predict_seconds"]
    total_batched = batched["fit_seconds"] + batched["predict_seconds"]
    return {
        "train_batch": train_batch,
        "holdout_batch": holdout_batch,
        "num_steps": num_steps,
        "num_layers": NUM_LAYERS,
        "reference_fit_seconds": reference["fit_seconds"],
        "batched_fit_seconds": batched["fit_seconds"],
        "reference_predict_seconds": reference["predict_seconds"],
        "batched_predict_seconds": batched["predict_seconds"],
        "fit_speedup": reference["fit_seconds"] / batched["fit_seconds"],
        "predict_speedup": (
            reference["predict_seconds"] / batched["predict_seconds"]
        ),
        "total_speedup": total_ref / total_batched,
        "predict_states_per_sec": holdout_batch / batched["predict_seconds"],
        "reference_accuracy": accuracies["reference"],
        "batched_accuracy": accuracies["batched"],
        **_check_equivalence(
            num_qubits, num_steps, states, labels, holdout
        ),
    }


def run_benchmark() -> dict:
    return {
        str(num_qubits): run_scenario(num_qubits, *scenario)
        for num_qubits, scenario in SCENARIOS.items()
    }


def publish(results: dict) -> None:
    """Print the results table (the artifact is written separately)."""
    header = (
        f"{'qubits':>6} {'fit x':>7} {'pred x':>7} {'total x':>8} "
        f"{'acc ref':>8} {'acc bat':>8} {'margin diff':>12} {'theta diff':>11}"
    )
    print("\n" + header)
    for qubits, row in sorted(results.items(), key=lambda kv: int(kv[0])):
        print(
            f"{qubits:>6} {row['fit_speedup']:>6.1f}x "
            f"{row['predict_speedup']:>6.1f}x "
            f"{row['total_speedup']:>7.1f}x "
            f"{row['reference_accuracy']:>8.2f} "
            f"{row['batched_accuracy']:>8.2f} "
            f"{row['max_margin_diff']:>12.1e} "
            f"{row['max_theta_diff']:>11.1e}"
        )


def write_artifact(results: dict) -> None:
    """Write ``BENCH_*.json``; full runs call this after every gate."""
    ARTIFACT.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"artifact: {ARTIFACT}")


def _assert_equivalent(row: dict) -> None:
    assert row["max_margin_diff"] <= MAX_MARGIN_DIFF
    assert row["max_theta_diff"] <= MAX_THETA_DIFF
    assert row["train_accuracy_gap"] <= MAX_ACCURACY_GAP
    assert row["predictions_equal"]


def test_qml_training_speedup():
    results = run_benchmark()
    publish(results)
    for qubits, min_speedup in GATED_SPEEDUPS.items():
        row = results[str(qubits)]
        _assert_equivalent(row)
        assert row["fit_speedup"] >= min_speedup
        assert row["total_speedup"] >= min_speedup
    write_artifact(results)


def smoke() -> None:
    """CI guard: one reduced 6-qubit scenario, no artifact write.

    The speedup gate keeps the full ISSUE floor (3x) — locally the
    batched engine trains ~7-10x faster, so shared runners have wide
    margin — while the equivalence gates are exact-trajectory checks
    that cannot flake (both engines consume one RNG stream).
    """
    row = run_scenario(6, train_batch=16, holdout_batch=48, num_steps=12)
    print(
        f"6q qml smoke: fit {row['fit_speedup']:.1f}x, "
        f"predict {row['predict_speedup']:.1f}x, "
        f"total {row['total_speedup']:.1f}x (gate 3x), "
        f"margin diff {row['max_margin_diff']:.1e}, "
        f"accuracy gap {row['train_accuracy_gap']:.2f}"
    )
    _assert_equivalent(row)
    assert row["fit_speedup"] >= 3.0
    assert row["total_speedup"] >= 3.0
    print("qml training smoke: ok")


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        smoke()
    else:
        test_qml_training_speedup()
