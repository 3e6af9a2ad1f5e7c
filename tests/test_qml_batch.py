"""Batched == per-sample equivalence for the QML layer, plus serving tests.

The contract under test: the batched training/inference path (template
bind + one stacked statevector propagation through
:class:`repro.core.batch.VQCObjective`) must reproduce the sequential
per-state reference (:class:`repro.qml.vqc.VariationalClassifier`) to
well under 1e-12 on every margin, loss, and prediction — and the whole
SPSA trajectory of :class:`ReferenceClassifier`, which shares the RNG
stream.
"""

import json

import numpy as np
import pytest

from repro.core.batch import VQCObjective
from repro.core.config import EnQodeConfig, QMLConfig
from repro.core.encoder import EnQodeEncoder
from repro.core.serialization import save_encoder
from repro.errors import (
    DataError,
    OptimizationError,
    SerializationError,
    ServiceError,
)
from repro.hardware.backend import brisbane_linear_segment
from repro.qml import (
    QMLClassifier,
    QMLModel,
    TrainableEmbedding,
    VQCAnsatz,
    load_qml_model,
    save_qml_model,
)
from repro.qml.model import _ReferenceObjective
from repro.qml.vqc import VariationalClassifier
from repro.service import EncodingService
from repro.service.registry import EncoderRegistry
from repro.transpile.template import transpile_template


class ReferenceClassifier(QMLClassifier):
    """The classifier trained and evaluated one state at a time through
    the eager :class:`VariationalClassifier` circuit (same SPSA loop,
    same RNG stream)."""

    def _objective(self, states, labels):
        return _ReferenceObjective(
            self.vqc, states, labels, self.config.margin
        )

    def decision_values(self, states):
        return self.vqc.expectations_z0(states, self.theta)


def _random_states(rng, num_qubits, batch):
    raw = rng.normal(size=(batch, 2**num_qubits)) + 1j * rng.normal(
        size=(batch, 2**num_qubits)
    )
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _objective_pair(rng, num_qubits, num_layers, batch, margin=0.4):
    states = _random_states(rng, num_qubits, batch)
    labels = rng.integers(0, 2, size=batch)
    vqc = VariationalClassifier(num_qubits, num_layers)
    template = transpile_template(
        vqc.ansatz(), brisbane_linear_segment(num_qubits), 1
    )
    return vqc, VQCObjective(template, states, labels, margin), states, labels


# -- template form of the ansatz ----------------------------------------------------


@pytest.mark.parametrize("num_qubits,num_layers", [(2, 1), (3, 2), (4, 3), (6, 2)])
def test_vqc_template_has_trivial_layout(num_qubits, num_layers):
    template = transpile_template(
        VQCAnsatz(num_qubits, num_layers),
        brisbane_linear_segment(num_qubits),
        1,
    )
    assert template.has_trivial_layout
    assert template.num_physical_qubits == num_qubits


@pytest.mark.parametrize("num_qubits,num_layers", [(2, 1), (3, 2), (5, 2)])
def test_vqc_ansatz_matches_eager_circuit(rng, num_qubits, num_layers):
    """The Rz-only decomposed form and the eager Ry/Rz form are the same
    unitary family: identical <Z_0> on random states and thetas."""
    vqc = VariationalClassifier(num_qubits, num_layers)
    ansatz = vqc.ansatz()
    assert ansatz.num_parameters == vqc.num_parameters
    states = _random_states(rng, num_qubits, 4)
    for _ in range(3):
        theta = rng.uniform(-np.pi, np.pi, vqc.num_parameters)
        eager = vqc.expectations_z0(states, theta)
        from repro.quantum.statevector import Statevector

        decomposed = np.array(
            [
                VariationalClassifier._z0_from_probs(
                    Statevector(row, validate=False)
                    .evolve(ansatz.circuit(theta))
                    .probabilities()
                )
                for row in states
            ]
        )
        np.testing.assert_allclose(decomposed, eager, atol=1e-13)


# -- objective equivalence ----------------------------------------------------------


@pytest.mark.parametrize(
    "num_qubits,num_layers,batch",
    [(2, 1, 3), (3, 2, 8), (4, 2, 16), (6, 1, 5), (8, 2, 4)],
)
def test_batched_margins_match_reference(rng, num_qubits, num_layers, batch):
    vqc, objective, states, labels = _objective_pair(
        rng, num_qubits, num_layers, batch
    )
    signs = 1.0 - 2.0 * labels.astype(float)
    for _ in range(3):
        theta = rng.uniform(-np.pi, np.pi, vqc.num_parameters)
        reference = signs * vqc.expectations_z0(states, theta)
        batched = objective.margins(theta)
        assert np.abs(batched - reference).max() <= 1e-12


@pytest.mark.parametrize("num_qubits,num_layers,batch", [(3, 2, 8), (6, 2, 6)])
def test_batched_losses_match_reference(rng, num_qubits, num_layers, batch):
    vqc, objective, states, labels = _objective_pair(
        rng, num_qubits, num_layers, batch
    )
    signs = 1.0 - 2.0 * labels.astype(float)
    thetas = rng.uniform(-np.pi, np.pi, (4, vqc.num_parameters))
    batched = objective.losses(thetas)
    for k, theta in enumerate(thetas):
        margins = signs * vqc.expectations_z0(states, theta)
        reference = np.maximum(0.0, 0.4 - margins).mean()
        assert abs(batched[k] - reference) <= 1e-12


def test_batched_predictions_match_reference(rng):
    vqc, objective, states, _ = _objective_pair(rng, 4, 2, 12)
    theta = rng.uniform(-np.pi, np.pi, vqc.num_parameters)
    reference = (vqc.expectations_z0(states, theta) < 0.0).astype(int)
    np.testing.assert_array_equal(objective.predictions(theta), reference)


def test_objective_minibatch_indices(rng):
    vqc, objective, states, labels = _objective_pair(rng, 3, 2, 10)
    theta = rng.uniform(-np.pi, np.pi, vqc.num_parameters)
    indices = np.array([7, 2, 5])
    sub = objective.margins(theta, indices)
    full = objective.margins(theta)
    np.testing.assert_allclose(sub, full[indices], atol=1e-14)


def test_objective_validation(rng):
    vqc, objective, states, labels = _objective_pair(rng, 3, 1, 4)
    template = objective.template
    with pytest.raises(OptimizationError):
        VQCObjective(template, states[:, :4], labels)  # wrong width
    with pytest.raises(OptimizationError):
        VQCObjective(template, states[:0], labels[:0])  # empty
    with pytest.raises(OptimizationError):
        VQCObjective(template, states, labels[:-1])  # length mismatch
    with pytest.raises(OptimizationError):
        VQCObjective(template, states, labels + 1)  # non-binary
    with pytest.raises(OptimizationError):
        VQCObjective(template, states, labels, margin=0.0)


# -- SPSA trajectory equivalence ----------------------------------------------------


@pytest.mark.parametrize(
    "num_qubits,num_layers,batch,minibatch",
    [(2, 1, 6, None), (3, 2, 10, None), (4, 1, 8, 3)],
)
def test_spsa_trajectories_match(rng, num_qubits, num_layers, batch, minibatch):
    """Batched and reference runs share one RNG stream, so whole
    training runs agree step for step (1e-9 allows float
    non-associativity to compound)."""
    states = _random_states(rng, num_qubits, batch)
    labels = rng.integers(0, 2, size=batch)
    kwargs = dict(
        num_qubits=num_qubits,
        num_layers=num_layers,
        num_steps=20,
        seed=7,
        minibatch_size=minibatch,
    )
    batched = QMLClassifier(config=QMLConfig(**kwargs))
    reference = ReferenceClassifier(config=QMLConfig(**kwargs))
    history_b = batched.fit(states, labels)
    history_r = reference.fit(states, labels)
    assert np.abs(batched.theta - reference.theta).max() <= 1e-9
    assert (
        np.abs(np.array(history_b.losses) - np.array(history_r.losses)).max()
        <= 1e-9
    )
    np.testing.assert_array_equal(
        batched.predict(states), reference.predict(states)
    )
    assert (
        np.abs(
            batched.decision_values(states)
            - reference.decision_values(states)
        ).max()
        <= 1e-12
    )


# -- trainable embedding + pipeline transparency ------------------------------------


def _fitted_encoder(rng, num_qubits=3, preprocessor=None, input_size=None):
    backend = brisbane_linear_segment(num_qubits)
    config = EnQodeConfig(
        num_qubits=num_qubits,
        num_layers=3,
        offline_restarts=2,
        max_clusters=4,
        min_cluster_fidelity=0.5,
    )
    width = input_size if input_size is not None else 2**num_qubits
    samples = np.abs(rng.normal(size=(20, width))) + 0.05
    encoder = EnQodeEncoder(backend, config, preprocessor=preprocessor)
    encoder.fit(samples)
    return encoder, samples, backend


def test_preprocessor_is_transparent_to_encode_paths(rng):
    pre = TrainableEmbedding(12, 8, seed=3)
    encoder, samples, _ = _fitted_encoder(
        rng, preprocessor=pre, input_size=12
    )
    assert encoder.input_size == 12
    assert encoder.pipeline.input_size == 12
    batch = encoder.encode_batch(samples[:4])
    # The embedded targets are exactly the preprocessed rows ...
    np.testing.assert_allclose(
        np.stack([e.target for e in batch]),
        pre.transform(samples[:4]),
        atol=1e-15,
    )
    # ... and one-off encode accepts the same raw width.
    one = encoder.encode(samples[0])
    assert one.target.shape == (8,)


def test_preprocessor_width_and_kwarg_guards(rng):
    pre = TrainableEmbedding(12, 8, seed=3)
    encoder, samples, _ = _fitted_encoder(
        rng, preprocessor=pre, input_size=12
    )
    with pytest.raises(OptimizationError):
        encoder.encode(np.ones(8))  # raw width, not the preprocessor's
    with pytest.raises(OptimizationError):
        encoder.encode_batch(samples[:2], normalize=False)
    with pytest.raises(OptimizationError):
        EnQodeEncoder(
            brisbane_linear_segment(3),
            EnQodeConfig(num_qubits=3),
            preprocessor=TrainableEmbedding(12, 4),  # wrong output width
        )


def test_trainable_embedding_fit_improves_separation(rng):
    emb = TrainableEmbedding(10, seed=5)
    samples = rng.normal(size=(24, 10))
    samples[12:] += 1.5
    labels = np.repeat([0, 1], 12)
    trace = emb.fit(samples, labels, num_steps=30)
    assert trace[-1] >= trace[0]
    with pytest.raises(DataError):
        emb.transform(np.ones((2, 7)))
    with pytest.raises(DataError):
        emb.transform(np.zeros((1, 10)))


def test_encoder_bundle_roundtrips_preprocessor(rng, tmp_path):
    pre = TrainableEmbedding(12, 8, seed=3)
    encoder, samples, backend = _fitted_encoder(
        rng, preprocessor=pre, input_size=12
    )
    path = tmp_path / "enc.json"
    save_encoder(encoder, path)
    registry = EncoderRegistry()
    reloaded = registry.load("k", path, backend)
    assert reloaded.input_size == 12
    a = encoder.encode_batch(samples[:3])
    b = reloaded.encode_batch(samples[:3])
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.theta, y.theta)


# -- classifier bundles + service predict -------------------------------------------


def _trained_model(rng, num_qubits=3):
    encoder, samples, backend = _fitted_encoder(rng, num_qubits=num_qubits)
    labels = np.repeat([0, 1], samples.shape[0] // 2)
    classifier = QMLClassifier(
        config=QMLConfig(num_qubits=num_qubits, num_layers=2, num_steps=30, seed=1)
    )
    model = QMLModel(encoder, classifier)
    classifier.fit(model.embed(samples), labels)
    return model, samples, labels, backend


def test_model_bundle_roundtrip_identical_predictions(rng, tmp_path):
    model, samples, labels, backend = _trained_model(rng)
    path = tmp_path / "model.json"
    save_qml_model(model, path)
    registry = EncoderRegistry()
    reloaded = registry.load_model("pair", path, backend)
    np.testing.assert_array_equal(
        model.predict(samples), reloaded.predict(samples)
    )
    values = reloaded.classifier.vqc.expectations_z0(
        reloaded.embed(samples), reloaded.classifier.theta
    )
    np.testing.assert_array_equal(
        reloaded.predict(samples), (values < 0.0).astype(int)
    )
    assert registry.model("pair") is reloaded
    # The bundle's encoder occupies the same encoder slot.
    assert registry.get("pair") is reloaded.encoder


def test_model_bundle_schema_mismatch_rejected(rng, tmp_path):
    model, _, _, backend = _trained_model(rng)
    path = tmp_path / "model.json"
    save_qml_model(model, path)
    payload = json.loads(path.read_text())
    payload["schema_version"] = 99
    payload["format_version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(SerializationError):
        load_qml_model(path, backend)
    # An encoder-only bundle is not a classifier bundle.
    save_encoder(model.encoder, path)
    with pytest.raises(SerializationError):
        load_qml_model(path, backend)


#: Malformed classifier ``config`` sections: each must fail the load
#: with a SerializationError (never a TypeError or a bare
#: OptimizationError).
MALFORMED_CONFIGS = {
    "unknown-field": lambda config: {**config, "bogus_knob": 1},
    "string-for-int": lambda config: {**config, "num_qubits": "four"},
    "float-for-int": lambda config: {**config, "num_layers": 2.5},
    "bool-for-float": lambda config: {**config, "margin": True},
    "string-for-optional": lambda config: {**config, "minibatch_size": "x"},
    "out-of-range": lambda config: {**config, "margin": -1.0},
    "list": lambda config: list(config.items()),
    "null": lambda config: None,
}


@pytest.mark.parametrize("section", ["classifier", "encoder"])
@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
def test_model_bundle_malformed_config_rejected(rng, section, case):
    model, _, _, backend = _trained_model(rng)
    payload = model.to_dict()
    payload[section]["config"] = MALFORMED_CONFIGS[case](
        payload[section]["config"]
    )
    with pytest.raises(SerializationError):
        QMLModel.from_dict(payload, backend)


#: Malformed stored numbers in a classifier bundle: each must fail the
#: load with a SerializationError.
MALFORMED_NUMBERS = {
    "classifier-theta-nan": ("classifier", "theta", 0, float("nan")),
    "classifier-theta-inf": ("classifier", "theta", 1, float("inf")),
    "classifier-theta-string": ("classifier", "theta", None, "zeros"),
    "classifier-theta-short": ("classifier", "theta", None, [0.0]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_NUMBERS))
def test_model_bundle_malformed_numbers_rejected(rng, case):
    model, _, _, backend = _trained_model(rng)
    payload = model.to_dict()
    section, key, index, value = MALFORMED_NUMBERS[case]
    if index is None:
        payload[section][key] = value
    else:
        payload[section][key][index] = value
    with pytest.raises(SerializationError):
        QMLModel.from_dict(payload, backend)


def test_model_bundle_non_json_file_rejected(rng, tmp_path):
    backend = brisbane_linear_segment(3)
    path = tmp_path / "model.json"
    path.write_text("{not json")
    with pytest.raises(SerializationError):
        load_qml_model(path, backend)
    with pytest.raises(FileNotFoundError):
        load_qml_model(tmp_path / "absent.json", backend)


#: Malformed preprocessor sections (weights and sizes): each must fail
#: with a SerializationError.
MALFORMED_PREPROCESSORS = {
    "weights-nan": ("weights", lambda w: [[float("nan")] + w[0][1:]] + w[1:]),
    "weights-inf": ("weights", lambda w: w[:-1] + [[float("inf")] * 12]),
    "weights-string": ("weights", lambda w: "identity"),
    "weights-shape": ("weights", lambda w: w[:-1]),
    "input-size-string": ("input_size", lambda n: "12"),
    "input-size-fraction": ("input_size", lambda n: 12.5),
    "input-size-nan": ("input_size", lambda n: float("nan")),
    "output-size-zero": ("output_size", lambda n: 0),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PREPROCESSORS))
def test_preprocessor_bundle_malformed_numbers_rejected(case):
    payload = TrainableEmbedding(12, 8, seed=3).to_dict()
    key, corrupt = MALFORMED_PREPROCESSORS[case]
    payload[key] = corrupt(payload[key])
    with pytest.raises(SerializationError):
        TrainableEmbedding.from_dict(payload)


@pytest.mark.parametrize("engine", ["reference", "batched"])
def test_model_bundle_with_retired_engine_serves_identically(rng, engine):
    """Bundles written while ``QMLConfig.engine`` existed still load, and
    the reloaded model serves bit for bit what a current bundle does."""
    model, samples, _, backend = _trained_model(rng)
    payload = model.to_dict()
    assert "engine" not in payload["classifier"]["config"]
    legacy = json.loads(json.dumps(payload))
    legacy["classifier"]["config"]["engine"] = engine
    legacy["encoder"]["config"]["offline_batch"] = engine == "batched"
    current = QMLModel.from_dict(payload, backend)
    restored = QMLModel.from_dict(legacy, backend)
    assert restored.classifier.config == model.classifier.config
    np.testing.assert_array_equal(
        restored.decision_values(samples), current.decision_values(samples)
    )
    np.testing.assert_array_equal(
        restored.predict(samples), model.predict(samples)
    )


def test_service_predict_matches_model(rng):
    model, samples, labels, _ = _trained_model(rng)
    service = EncodingService(max_batch=8)
    service.register_model("pair", model)
    np.testing.assert_array_equal(
        service.predict(samples), model.predict(samples)
    )
    # Implicit key with exactly one model; explicit key otherwise.
    np.testing.assert_array_equal(
        service.predict(samples[:2], key="pair"), model.predict(samples[:2])
    )
    assert service.stats().predictions_completed == samples.shape[0] + 2
    with pytest.raises(ServiceError):
        service.predict(samples[:, :-1])
    with pytest.raises(ServiceError):
        service.predict(samples, key="missing")


def test_service_predict_requires_model(rng):
    encoder, samples, _ = _fitted_encoder(rng)
    service = EncodingService()
    service.register("enc", encoder)
    with pytest.raises(ServiceError):
        service.predict(samples)
    with pytest.raises(ServiceError):
        EncodingService().register_model("x", object())
