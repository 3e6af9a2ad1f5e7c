"""Unit tests for the EnQode ansatz structure."""

import numpy as np
import pytest

from repro.core import EnQodeAnsatz
from repro.errors import OptimizationError
from repro.quantum import simulate_statevector
from repro.utils.linalg import is_unitary


def test_parameter_count():
    assert EnQodeAnsatz(8, 8).num_parameters == 64
    assert EnQodeAnsatz(4, 3).num_parameters == 12


def test_parameter_index_layout():
    ansatz = EnQodeAnsatz(4, 2)
    assert ansatz.parameter_index(0, 0) == 0
    assert ansatz.parameter_index(1, 3) == 7
    with pytest.raises(OptimizationError):
        ansatz.parameter_index(2, 0)


def test_entangling_bricks_alternate():
    ansatz = EnQodeAnsatz(8, 4)
    assert ansatz.entangling_pairs(0) == [(0, 1), (2, 3), (4, 5), (6, 7)]
    assert ansatz.entangling_pairs(1) == [(1, 2), (3, 4), (5, 6)]
    # Layer 2 repeats brick position 0 with flipped orientation.
    assert ansatz.entangling_pairs(2) == [(1, 0), (3, 2), (5, 4), (7, 6)]
    assert ansatz.entangling_pairs(3) == [(2, 1), (4, 3), (6, 5)]


def test_orientation_flag_off_keeps_direction():
    ansatz = EnQodeAnsatz(8, 4, alternate_orientation=False)
    assert ansatz.entangling_pairs(2) == [(0, 1), (2, 3), (4, 5), (6, 7)]


def test_pairs_are_nearest_neighbor():
    ansatz = EnQodeAnsatz(8, 8)
    for layer in range(8):
        for a, b in ansatz.entangling_pairs(layer):
            assert abs(a - b) == 1


def test_circuit_structure_and_counts():
    ansatz = EnQodeAnsatz(8, 8)
    qc = ansatz.circuit(np.zeros(64))
    counts = qc.count_ops()
    assert counts["rz"] == 64
    assert counts["cy"] == 28  # 4+3 alternating over 8 layers
    assert counts["rx"] == 16  # opening 8 + closing 8
    assert counts["ry"] == 8
    assert qc.num_qubits == 8


def test_circuit_parameter_validation():
    with pytest.raises(OptimizationError):
        EnQodeAnsatz(4, 2).circuit(np.zeros(5))


def test_invalid_construction_rejected():
    with pytest.raises(OptimizationError):
        EnQodeAnsatz(1, 2)
    with pytest.raises(OptimizationError):
        EnQodeAnsatz(4, 0)
    with pytest.raises(OptimizationError):
        EnQodeAnsatz(4, 2, entangler="swap")


def test_entangler_variants_build():
    for entangler in ("cy", "cx", "cz", "cry"):
        ansatz = EnQodeAnsatz(4, 2, entangler)
        psi = simulate_statevector(ansatz.circuit(np.ones(8)))
        assert np.linalg.norm(psi.data) == pytest.approx(1.0)


def test_closing_matrix_flat_magnitudes():
    # The closing layer must be Hadamard-like: all entries |v| = 1/sqrt(2),
    # which is what converts relative phases into amplitudes.
    v = EnQodeAnsatz(4, 2).closing_matrix_1q()
    assert is_unitary(v)
    assert np.allclose(np.abs(v), 1 / np.sqrt(2))


def test_closing_layer_adjoint_roundtrip(rng):
    ansatz = EnQodeAnsatz(3, 2)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)
    roundtrip = ansatz.pull_back(ansatz.apply_closing_layer(state)[None])
    assert np.allclose(roundtrip[0], state)


def _pull_back_loop(ansatz, states):
    """The per-qubit reference: one tensordot with v^dagger per qubit."""
    v_dag = ansatz.closing_matrix_1q().conj().T
    batch = states.shape[0]
    tensor = states.reshape((batch,) + (2,) * ansatz.num_qubits)
    for axis in range(1, ansatz.num_qubits + 1):
        tensor = np.moveaxis(
            np.tensordot(v_dag, tensor, axes=([1], [axis])), 0, axis
        )
    return tensor.reshape(batch, -1)


@pytest.mark.parametrize("num_qubits", [2, 3, 4, 5, 6, 8])
def test_pull_back_matches_per_qubit_loop(num_qubits):
    """The two-factor pull-back is V^dagger to the last bits, and a
    row's bits are the same alone and among 63 batch-mates."""
    ansatz = EnQodeAnsatz(num_qubits, 2)
    rng = np.random.default_rng(num_qubits)
    dim = 2**num_qubits
    states = rng.normal(size=(64, dim)) + 1j * rng.normal(size=(64, dim))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    batched = ansatz.pull_back(states)
    assert batched.shape == (64, dim)
    assert np.max(np.abs(batched - _pull_back_loop(ansatz, states))) < 1e-15
    for row in (0, 17, 63):
        alone = ansatz.pull_back(states[row : row + 1])
        assert np.array_equal(alone[0], batched[row])


def test_fixed_shape_across_parameters(rng):
    ansatz = EnQodeAnsatz(6, 4)
    qc1 = ansatz.circuit(rng.uniform(-3, 3, 24))
    qc2 = ansatz.circuit(rng.uniform(-3, 3, 24))
    assert [i.name for i in qc1] == [i.name for i in qc2]
    assert [i.qubits for i in qc1] == [i.qubits for i in qc2]
