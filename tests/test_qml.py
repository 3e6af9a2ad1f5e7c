"""Unit tests for the VQC classifier head and QML model."""

import numpy as np
import pytest

from repro.core import QMLConfig
from repro.errors import DataError, OptimizationError
from repro.qml import QMLClassifier, VariationalClassifier
from repro.quantum import DensityMatrix, Statevector


def test_vqc_parameter_count():
    assert VariationalClassifier(4, 2).num_parameters == 16
    assert VariationalClassifier(8, 3).num_parameters == 48


def test_vqc_circuit_structure():
    vqc = VariationalClassifier(3, 2)
    qc = vqc.circuit(np.zeros(12))
    counts = qc.count_ops()
    assert counts["ry"] == 6
    assert counts["rz"] == 6
    assert counts["cx"] == 4


def test_vqc_parameter_validation():
    with pytest.raises(OptimizationError):
        VariationalClassifier(3, 2).circuit(np.zeros(5))
    with pytest.raises(OptimizationError):
        VariationalClassifier(1)


def test_expectation_range(rng):
    vqc = VariationalClassifier(3, 2)
    theta = rng.uniform(-np.pi, np.pi, vqc.num_parameters)
    state = Statevector.zero_state(3)
    value = vqc.expectation_z0(state, theta)
    assert -1.0 <= value <= 1.0


def test_expectation_identity_circuit():
    vqc = VariationalClassifier(2, 1)
    theta = np.zeros(vqc.num_parameters)
    # Identity rotations + CX on |00> leaves <Z_0> = +1.
    assert vqc.expectation_z0(
        Statevector.zero_state(2), theta
    ) == pytest.approx(1.0)


def test_expectation_accepts_density_matrix(rng):
    vqc = VariationalClassifier(2, 1)
    theta = rng.uniform(-1, 1, vqc.num_parameters)
    psi = Statevector.zero_state(2)
    rho = DensityMatrix.from_statevector(psi)
    assert vqc.expectation_z0(rho, theta) == pytest.approx(
        vqc.expectation_z0(psi, theta)
    )


def test_decision_is_binary(rng):
    vqc = VariationalClassifier(2, 1)
    theta = rng.uniform(-np.pi, np.pi, vqc.num_parameters)
    assert vqc.decision(Statevector.zero_state(2), theta) in (0, 1)


def _separable_problem():
    """States |00..> (class 0) vs |10..> (class 1): trivially separable."""
    zero = Statevector.zero_state(3)
    one = Statevector.zero_state(3)
    one.apply_gate(np.array([[0, 1], [1, 0]], dtype=complex), (0,))
    states = [zero, one] * 6
    labels = np.array([0, 1] * 6)
    return states, labels


def test_training_learns_separable_problem():
    states, labels = _separable_problem()
    model = QMLClassifier(3, num_layers=1, seed=0)
    model.fit(states, labels, num_steps=60)
    assert model.accuracy(states, labels) == pytest.approx(1.0)


def test_training_reduces_loss():
    states, labels = _separable_problem()
    model = QMLClassifier(3, num_layers=1, seed=1)
    initial = model.loss(states, labels)
    history = model.fit(states, labels, num_steps=50)
    assert history.losses[-1] <= initial + 1e-9


def test_predict_shape():
    states, labels = _separable_problem()
    model = QMLClassifier(3, num_layers=1, seed=2)
    model.fit(states, labels, num_steps=30)
    assert model.predict(states).shape == labels.shape


def test_fit_validates_labels():
    states, _ = _separable_problem()
    model = QMLClassifier(3, seed=0)
    with pytest.raises(DataError):
        model.fit(states, np.arange(len(states)))
    with pytest.raises(DataError):
        model.fit(states, np.zeros(3))


def test_fit_rejects_empty_states():
    model = QMLClassifier(3, seed=0)
    with pytest.raises(DataError):
        model.fit([], np.empty(0, dtype=int))


def test_fit_rejects_negative_and_multiclass_labels():
    states, labels = _separable_problem()
    model = QMLClassifier(3, seed=0)
    with pytest.raises(DataError):
        model.fit(states, np.where(labels == 0, -1, 1))
    with pytest.raises(DataError):
        model.fit(states, labels + 1)


def test_loss_and_accuracy_validate_too():
    states, labels = _separable_problem()
    model = QMLClassifier(3, seed=0)
    with pytest.raises(DataError):
        model.loss(states, labels[:-1])
    with pytest.raises(DataError):
        model.accuracy([], np.empty(0, dtype=int))


def test_expectations_z0_matches_per_state_loop(rng):
    """The batched-over-states reference call (circuit built once per
    theta) must agree exactly with one-at-a-time evaluation."""
    vqc = VariationalClassifier(3, 2)
    theta = rng.uniform(-np.pi, np.pi, vqc.num_parameters)
    raw = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    states = [Statevector(row, validate=False) for row in raw]
    batched = vqc.expectations_z0(states, theta)
    singles = np.array([vqc.expectation_z0(s, theta) for s in states])
    np.testing.assert_array_equal(batched, singles)
    # An amplitude matrix is accepted directly.
    np.testing.assert_allclose(
        vqc.expectations_z0(raw, theta), singles, atol=1e-14
    )


def test_density_matrix_states_fall_back_to_reference_engine():
    states, labels = _separable_problem()
    rhos = [DensityMatrix.from_statevector(s) for s in states]
    model = QMLClassifier(3, num_layers=1, seed=0)
    model.fit(rhos, labels, num_steps=20)
    pure = QMLClassifier(3, num_layers=1, seed=0)
    pure.fit(states, labels, num_steps=20)
    # Pure-state density matrices carry the same physics; the two fits
    # share the RNG stream, so trajectories agree to float noise.
    np.testing.assert_allclose(model.theta, pure.theta, atol=1e-9)
    assert model.accuracy(rhos, labels) == pure.accuracy(states, labels)


def test_config_seed_drives_initial_theta():
    """With config= the classifier seeds from config.seed; without it
    the shorthand defaults (8 qubits, 2 layers, seed 0) are unchanged."""
    seeded = QMLClassifier(config=QMLConfig(num_qubits=3, seed=5))
    np.testing.assert_array_equal(
        seeded.theta, QMLClassifier(3, seed=5).theta
    )
    default = QMLClassifier(config=QMLConfig(num_qubits=3))
    assert not np.array_equal(seeded.theta, default.theta)
    np.testing.assert_array_equal(QMLClassifier(3).theta, default.theta)
    assert QMLClassifier().config == QMLConfig()


@pytest.mark.parametrize(
    "knob",
    [
        {"num_qubits": 3},
        {"num_layers": 2},
        {"seed": 1},
        {"seed": np.random.default_rng(1)},
    ],
    ids=["num_qubits", "num_layers", "seed", "generator"],
)
def test_shorthand_knob_beside_config_rejected(knob):
    with pytest.raises(DataError, match="config="):
        QMLClassifier(config=QMLConfig(num_qubits=3), **knob)
