"""Lazy-materialization equivalence suite for the compact bound-circuit IR.

``ParametricTemplate.bind_batch_ir`` packs a whole bind into shared
arrays (:class:`repro.transpile.bound.BoundCircuitBatch`); every consumer
then has two routes to the same answer — walk the arrays directly, or
materialize the instruction stream.  The contract is strict on both:
``BoundCircuit.materialize()`` must equal the full per-sample
``transpile`` of the bound ansatz **float-bit** (same gate names, qubit
tuples, and the same floating-point bits in every Rz angle), and the IR
statevector fast path must equal simulating the materialized circuit
**exactly**
(``np.array_equal``, no tolerance).  The sweeps reuse the branch-cut
angle batches of ``test_template_batch`` so one-ulp numeric drift near
the ±pi Euler cut cannot hide.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ansatz import EnQodeAnsatz
from repro.hardware import brisbane_linear_segment
from repro.quantum import (
    QuantumCircuit,
    StatevectorSimulator,
    simulate_statevector,
)
from repro.transpile import BoundCircuit, BoundCircuitBatch
from repro.transpile.template import ParametricTemplate

from tests.test_template_batch import branch_cut_thetas, transpile_loop


def assert_instructions_identical(actual, expected):
    actual = list(actual)
    expected = list(expected)
    assert len(actual) == len(expected)
    for a, b in zip(actual, expected):
        assert a.gate.name == b.gate.name
        assert a.qubits == b.qubits
        # Tuple equality on floats is exact — no allclose fuzz.
        assert a.gate.params == b.gate.params


@pytest.mark.parametrize("num_qubits,num_layers", [(3, 3), (4, 4), (5, 3)])
@pytest.mark.parametrize("level", [0, 1])
def test_materialize_matches_eager_bind(num_qubits, num_layers, level, rng):
    """Seeded sweep: every IR row materializes to its full transpile."""
    ansatz = EnQodeAnsatz(num_qubits, num_layers)
    backend = brisbane_linear_segment(num_qubits)
    template = ParametricTemplate(ansatz, backend, level)
    thetas = branch_cut_thetas(ansatz.num_parameters, rng)
    bound = template.bind_batch_ir(thetas)
    assert isinstance(bound, BoundCircuitBatch)
    assert bound.batch_size == thetas.shape[0]
    for row, reference in enumerate(transpile_loop(template, thetas)):
        materialized = bound.circuit(row).materialize()
        assert type(materialized) is QuantumCircuit
        assert_instructions_identical(materialized, reference.circuit)


@pytest.mark.parametrize("batch_size", [1, 2, 7, 16])
def test_batch_size_sweep(segment4, rng, batch_size):
    ansatz = EnQodeAnsatz(4, 4)
    template = ParametricTemplate(ansatz, segment4, 1)
    thetas = branch_cut_thetas(ansatz.num_parameters, rng)[:batch_size]
    bound = template.bind_batch_ir(thetas)
    for row, reference in enumerate(transpile_loop(template, thetas)):
        assert_instructions_identical(
            bound.circuit(row).materialize(), reference.circuit
        )


@pytest.mark.parametrize("level", [0, 1])
def test_ir_statevector_matches_materialized_simulation(segment4, rng, level):
    """The array-walking fast path equals eager simulation bitwise."""
    ansatz = EnQodeAnsatz(4, 4)
    template = ParametricTemplate(ansatz, segment4, level)
    thetas = branch_cut_thetas(ansatz.num_parameters, rng)
    bound = template.bind_batch_ir(thetas)
    simulator = StatevectorSimulator()
    for row in range(bound.batch_size):
        circuit = bound.circuit(row)
        fast = simulate_statevector(circuit)
        assert not circuit.is_materialized  # the fast path built no objects
        reference = simulate_statevector(circuit.materialize())
        assert np.array_equal(fast.data, reference.data)
        # The simulator front-end dispatches through the same hook.
        via_simulator = simulator.run(circuit)
        assert np.array_equal(via_simulator.data, reference.data)
        assert not circuit.is_materialized


def test_structural_queries_answer_without_materializing(segment4, rng):
    ansatz = EnQodeAnsatz(4, 4)
    template = ParametricTemplate(ansatz, segment4, 1)
    thetas = branch_cut_thetas(ansatz.num_parameters, rng)
    bound = template.bind_batch_ir(thetas)
    for row in range(bound.batch_size):
        circuit = bound.circuit(row)
        lazy = (
            len(circuit),
            circuit.count_ops(),
            circuit.count_ops(physical_only=True),
            circuit.num_gates(),
            circuit.num_gates(physical_only=True),
            circuit.num_one_qubit_gates(),
            circuit.num_one_qubit_gates(physical_only=True),
            circuit.num_two_qubit_gates(),
        )
        assert not circuit.is_materialized
        list(circuit)  # any instruction access materializes (once)
        assert circuit.is_materialized
        eager = (
            len(circuit),
            circuit.count_ops(),
            circuit.count_ops(physical_only=True),
            circuit.num_gates(),
            circuit.num_gates(physical_only=True),
            circuit.num_one_qubit_gates(),
            circuit.num_one_qubit_gates(physical_only=True),
            circuit.num_two_qubit_gates(),
        )
        assert lazy == eager


def test_bind_batch_rows_are_lazy_and_independent(segment4, rng):
    """bind_batch wraps lazy views; materialized lists never alias."""
    ansatz = EnQodeAnsatz(4, 4)
    template = ParametricTemplate(ansatz, segment4, 1)
    thetas = rng.uniform(-np.pi, np.pi, (3, ansatz.num_parameters))
    results = template.bind_batch(thetas)
    assert all(isinstance(r.circuit, BoundCircuit) for r in results)
    assert not any(r.circuit.is_materialized for r in results)
    first = list(results[0].circuit)
    assert results[0].circuit.is_materialized
    assert not results[1].circuit.is_materialized
    results[0].circuit._instructions.append("sentinel")
    assert list(results[1].circuit)[-1] != "sentinel"
    assert len(first) + 1 == len(results[0].circuit)


def test_payload_accounting(segment4, rng):
    """Per-sample payload is a few hundred bytes of arrays, and row
    payloads sum (with the shared theta matrix) to the batch total."""
    ansatz = EnQodeAnsatz(4, 4)
    template = ParametricTemplate(ansatz, segment4, 1)
    thetas = rng.uniform(-np.pi, np.pi, (8, ansatz.num_parameters))
    bound = template.bind_batch_ir(thetas)
    total = bound.payload_nbytes()
    per_row = [bound.payload_nbytes_row(r) for r in range(8)]
    assert total == sum(per_row)
    assert all(0 < p < 4096 for p in per_row)


def test_service_responses_carry_compact_ir(segment4):
    """Submit-then-flush returns lazy BoundCircuits float-bit identical
    to the encode_batch circuits for the same samples."""
    from repro.core import EnQodeConfig, EnQodeEncoder
    from repro.service import EncodingService

    rng = np.random.default_rng(11)
    center = rng.normal(size=16)
    center /= np.linalg.norm(center)
    samples = center + 0.03 * rng.normal(size=(6, 16))
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)

    config = EnQodeConfig(
        num_qubits=4,
        num_layers=4,
        offline_restarts=1,
        offline_max_iterations=150,
        online_max_iterations=25,
        max_clusters=2,
        seed=2,
    )
    encoder = EnQodeEncoder(segment4, config)
    encoder.fit(samples)
    reference = encoder.encode_batch(samples)

    service = EncodingService(max_batch=len(samples))
    service.register("only", encoder)
    tickets = [service.submit(x, key="only") for x in samples]
    assert all(ticket.done for ticket in tickets)
    for ticket, ref in zip(tickets, reference):
        response = ticket.result()
        circuit = response.circuit
        assert isinstance(circuit, BoundCircuit)
        assert isinstance(ref.circuit, BoundCircuit)
        assert_instructions_identical(circuit, ref.circuit)
