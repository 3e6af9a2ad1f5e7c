"""QML image classification on EnQode embeddings (the paper's Fig. 1 flow).

End-to-end tour of the batch-native QML stack:

1. an NQE-style :class:`~repro.data.TrainableEmbedding` learns a linear
   map that pulls same-class images together *before* amplitude
   embedding (SPSA ascent on class separation);
2. one :class:`~repro.core.EnQodeEncoder` — with the trained embedding
   slotted in as its preprocessing stage — fits cluster templates over
   both classes at once;
3. a :class:`~repro.qml.QMLClassifier` trains on the whole embedded
   statevector matrix in one batch: the VQC ansatz is compiled once into
   a parametric template and every SPSA step binds a
   ``(2, num_parameters)`` theta pair + propagates all states in one
   stacked sweep (no per-evaluation circuit objects);
4. encoder + classifier ship as one versioned
   :class:`~repro.qml.QMLModel` bundle, registered in an
   :class:`~repro.service.EncodingService` whose ``predict`` endpoint
   classifies *raw* samples (preprocess -> embed -> VQC readout);
5. the trained classifier is re-evaluated on **noisy** embedded states
   with a finite shot budget and calibrated readout error, contrasting
   EnQode's uniform shallow circuits with the Baseline's deep exact
   circuits — the Baseline's decohered states leave a readout margin far
   below shot noise, so its accuracy collapses toward a coin flip (the
   paper's central motivation).

Run:  PYTHONPATH=src python examples/qml_classification.py
"""

import tempfile

import numpy as np

from repro import (
    BaselineStatePreparation,
    EnQodeConfig,
    EnQodeEncoder,
    QMLConfig,
    brisbane_linear_segment,
    load_dataset,
)
from repro.data import TrainableEmbedding
from repro.qml import QMLClassifier, QMLModel, load_qml_model, save_qml_model
from repro.quantum import DensityMatrixSimulator, simulate_statevector
from repro.quantum.measurement import backend_readout_errors, sample_counts
from repro.service import EncodingService

NUM_QUBITS = 8
TRAIN_PER_CLASS = 10
TEST_PER_CLASS = 4
SHOTS = 512


def main() -> None:
    backend = brisbane_linear_segment(NUM_QUBITS)
    dataset = load_dataset("mnist", samples_per_class=80, seed=0)
    class_a, class_b = (int(c) for c in dataset.classes()[:2])
    print(f"classifying digit-like classes {class_a} vs {class_b}")

    block_a = dataset.class_slice(class_a)
    block_b = dataset.class_slice(class_b)

    def interleave(start: int, count: int):
        samples, labels = [], []
        for i in range(start, start + count):
            for label, block in ((0, block_a), (1, block_b)):
                samples.append(block[i])
                labels.append(label)
        return np.asarray(samples), np.asarray(labels)

    train_samples, train_labels = interleave(0, TRAIN_PER_CLASS)
    test_samples, test_labels = interleave(TRAIN_PER_CLASS, TEST_PER_CLASS)

    # 1. Learn the embedding: a linear map trained to separate the
    # classes *in state space* (mean same-class overlap minus cross).
    embedding = TrainableEmbedding(train_samples.shape[1], seed=5)
    before = embedding.separation(train_samples, train_labels)
    embedding.fit(train_samples, train_labels)
    after = embedding.separation(train_samples, train_labels)
    print(f"trainable embedding separation: {before:.3f} -> {after:.3f}")

    # 2. One encoder over both classes, preprocessing slotted in front:
    # fit, encode, encode_batch, and the service all see raw pixels.
    encoder = EnQodeEncoder(
        backend, EnQodeConfig(seed=7), preprocessor=embedding
    )
    report = encoder.fit(train_samples)
    print(
        f"encoder: {report.num_clusters} clusters, "
        f"offline {report.total_time:.1f}s"
    )

    # 3. Batched VQC training on the embedded statevector matrix.
    encoded_train = encoder.encode_batch(train_samples)
    train_states = np.stack(
        [simulate_statevector(e.circuit).data for e in encoded_train]
    )
    classifier = QMLClassifier(
        config=QMLConfig(num_qubits=NUM_QUBITS, num_layers=2, num_steps=150, seed=1)
    )
    history = classifier.fit(train_states, train_labels)
    print(
        f"\nbatched VQC training: loss {history.losses[0]:.3f} -> "
        f"{history.losses[-1]:.3f}, "
        f"train accuracy {classifier.accuracy(train_states, train_labels):.2f}"
    )

    # 4. Bundle + serve: raw samples in, labels out.
    model = QMLModel(encoder, classifier)
    with tempfile.NamedTemporaryFile(suffix=".json") as bundle:
        save_qml_model(model, bundle.name)
        restored = load_qml_model(bundle.name, backend)
    service = EncodingService()
    service.register_model("digits", restored)
    served = service.predict(test_samples)
    assert np.array_equal(served, model.predict(test_samples))
    print(
        f"served test accuracy (ideal readout): "
        f"{np.mean(served == test_labels):.2f} "
        f"({service.stats().predictions_completed} predictions served)"
    )

    # 5. Held-out evaluation under hardware noise: EnQode vs Baseline.
    simulator = DensityMatrixSimulator(backend.noise_model())
    baseline = BaselineStatePreparation(backend)
    encoded_test = encoder.encode_batch(test_samples)
    test_states_noisy = [simulator.run(e.circuit) for e in encoded_test]
    base_states_noisy = [
        simulator.run(baseline.prepare(embedding.transform(x[None])[0]).circuit)
        for x in test_samples
    ]

    def shot_accuracy(states, seed=0):
        """Decide from <Z_0> estimated with finite shots + readout error."""
        readout = backend_readout_errors(backend)
        rng = np.random.default_rng(seed)
        circuit = classifier.vqc.circuit(classifier.theta)
        correct = 0
        for state, label in zip(states, test_labels):
            evolved = state.copy().evolve(circuit)
            counts = sample_counts(
                evolved, shots=SHOTS, seed=rng, readout_errors=readout
            )
            decision = int(counts.expectation_z(0) < 0.0)
            correct += decision == label
        return correct / len(states)

    print(
        f"test accuracy, EnQode noisy ({SHOTS} shots):      "
        f"{shot_accuracy(test_states_noisy):.2f}"
    )
    print(
        f"test accuracy, Baseline noisy ({SHOTS} shots):    "
        f"{shot_accuracy(base_states_noisy):.2f}"
        "   <- margin buried under shot noise"
    )


if __name__ == "__main__":
    main()
