"""OpenQASM 2/3 interop: round-trip identity, gate table, error paths.

The load-bearing property everywhere: ``from_qasm(to_qasm(c, v))`` is
instruction-identical to ``c`` — same gate names, same qubit tuples,
parameter tuples equal to the last float bit (``==`` on tuples, not
allclose).  Swept over the full gate vocabulary, branch-cut Rz angles,
random circuits, Mottonen baselines, and real ``encode_batch`` outputs
at 4/6/8 qubits.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baseline import mottonen_circuit
from repro.core.ansatz import EnQodeAnsatz
from repro.errors import SerializationError
from repro.io.qasm import (
    GATE_SIGNATURES,
    format_float,
    from_qasm,
    load_qasm,
    save_qasm,
    to_qasm,
)
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.gates import STANDARD_GATES, unitary_gate
from repro.transpile.template import ParametricTemplate

from tests.conftest import random_circuit
from tests.test_template_batch import branch_cut_thetas

VERSIONS = (2, 3)


def assert_instructions_identical(a: QuantumCircuit, b: QuantumCircuit):
    """Gate-for-gate equality with float-bit-exact parameters."""
    assert a.num_qubits == b.num_qubits
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.gate.name == right.gate.name
        assert left.qubits == right.qubits
        assert left.gate.params == right.gate.params


def assert_roundtrip(circuit: QuantumCircuit, version: int):
    text = to_qasm(circuit, version=version)
    parsed = from_qasm(text)
    assert_instructions_identical(circuit, parsed)
    # The writer is deterministic, so a second trip reproduces the text.
    assert to_qasm(parsed, version=version) == text


# -- gate vocabulary ---------------------------------------------------------------


def test_gate_table_covers_the_registry():
    assert set(GATE_SIGNATURES) == set(STANDARD_GATES)
    for name, (arity, num_params) in GATE_SIGNATURES.items():
        gate_obj = STANDARD_GATES[name](*([0.5] * num_params))
        assert gate_obj.num_qubits == arity
        assert len(gate_obj.params) == num_params


@pytest.mark.parametrize("version", VERSIONS)
def test_every_registry_gate_roundtrips(version, rng):
    qc = QuantumCircuit(3)
    for name, (arity, num_params) in GATE_SIGNATURES.items():
        params = rng.uniform(-2 * math.pi, 2 * math.pi, num_params).tolist()
        qubits = (1,) if arity == 1 else (2, 0)
        qc.append(STANDARD_GATES[name](*params), qubits)
    assert_roundtrip(qc, version)


@pytest.mark.parametrize("version", VERSIONS)
def test_branch_cut_rz_angles_roundtrip_bit_exact(version):
    qc = QuantumCircuit(1)
    for base in (math.pi, -math.pi):
        for eps in (0.0, 1e-9, -1e-9, 1e-10, -1e-10):
            qc.rz(base + eps, 0)
    assert_roundtrip(qc, version)
    parsed = from_qasm(to_qasm(qc, version=version))
    angles = [instr.gate.params[0] for instr in parsed]
    expected = [instr.gate.params[0] for instr in qc]
    assert angles == expected  # exact, not approximate


@pytest.mark.parametrize("version", VERSIONS)
@pytest.mark.parametrize("seed", range(5))
def test_random_circuits_roundtrip(version, seed):
    qc = random_circuit(num_qubits=4, depth=40, seed=seed)
    assert_roundtrip(qc, version)


@pytest.mark.parametrize("version", VERSIONS)
def test_mottonen_baseline_roundtrips(version, rng):
    for num_qubits in (2, 3, 4):
        amplitudes = rng.uniform(0.05, 1.0, 2**num_qubits)
        assert_roundtrip(mottonen_circuit(amplitudes), version)


# -- encoder outputs ---------------------------------------------------------------


@pytest.mark.parametrize("optimization_level", (0, 1))
@pytest.mark.parametrize("num_qubits", (4, 6, 8))
def test_template_bound_circuits_roundtrip(
    num_qubits, optimization_level, rng, request
):
    """Bound-IR circuits (what encode_batch serves) survive both formats."""
    backend = request.getfixturevalue(
        "segment4" if num_qubits == 4 else "segment8"
    )
    if num_qubits == 6:
        backend = backend.reduced(range(6))
    ansatz = EnQodeAnsatz(num_qubits, 8)
    template = ParametricTemplate(ansatz, backend, optimization_level)
    thetas = branch_cut_thetas(ansatz.num_parameters, rng)[:4]
    bound = template.bind_batch(thetas)
    for result in bound:
        for version in VERSIONS:
            assert_roundtrip(result.circuit, version)


def test_real_encode_batch_outputs_roundtrip(segment4, rng):
    """End-to-end: fit, encode_batch, export, reparse — bit-identical."""
    from repro.core.config import EnQodeConfig
    from repro.core.encoder import EnQodeEncoder

    config = EnQodeConfig(
        num_qubits=4,
        max_clusters=2,
        offline_restarts=1,
        offline_max_iterations=25,
    )
    encoder = EnQodeEncoder(segment4, config)
    data = np.abs(rng.normal(size=(20, 16))) + 0.1
    encoder.fit(data)
    for sample in encoder.encode_batch(data[:5]):
        for version in VERSIONS:
            assert_roundtrip(sample.circuit, version)


# -- emitted gate definitions ------------------------------------------------------


def _unitary_up_to_phase(a: np.ndarray, b: np.ndarray) -> bool:
    index = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(a[index]) < 1e-12:
        return False
    phase = b[index] / a[index]
    return np.allclose(a * phase, b, atol=1e-12)


@pytest.mark.parametrize(
    "name", sorted({"iswap", "ecr", "sxdg", "rzz"})
)
def test_emitted_gate_definitions_match_registry_matrices(name):
    """Parse each emitted def under a fresh name (forcing expansion into
    its body) and compare the resulting unitary with the registry gate."""
    from repro.io.qasm import _QASM3_DEFS

    definition = _QASM3_DEFS[name].replace(f"gate {name}", "gate custom_g")
    arity, num_params = GATE_SIGNATURES[name]
    params = "(0.7853981633974483)" if num_params else ""
    operands = "q[0], q[1]" if arity == 2 else "q[0]"
    text = (
        "OPENQASM 3.0;\n"
        f"{definition}\n"
        f"qubit[{arity}] q;\n"
        f"custom_g{params} {operands};\n"
    )
    parsed = from_qasm(text)
    reference = QuantumCircuit(arity)
    gate_params = (0.7853981633974483,) if num_params else ()
    reference.append(
        STANDARD_GATES[name](*gate_params), tuple(range(arity))
    )
    assert _unitary_up_to_phase(parsed.to_matrix(), reference.to_matrix())


# -- float formatting --------------------------------------------------------------


def test_format_float_is_repr_roundtrip_exact(rng):
    values = list(rng.uniform(-10, 10, 200))
    values += [math.pi, -math.pi, math.pi - 1e-9, 1e-300, -1e-300, 0.0, 1e22]
    for value in values:
        assert float(format_float(value)) == value
        assert "." in format_float(value).split("e")[0]


def test_format_float_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(SerializationError):
            format_float(bad)


# -- export blockers ---------------------------------------------------------------


def test_unitary_gate_export_raises_serialization_error(rng):
    qc = QuantumCircuit(1)
    qc.append(unitary_gate(np.eye(2), label="mystery"), (0,))
    with pytest.raises(SerializationError, match="mystery"):
        to_qasm(qc)


def test_generic_inverse_gate_export_raises():
    qc = QuantumCircuit(2)
    qc.append(STANDARD_GATES["iswap"]().inverse(), (0, 1))
    with pytest.raises(SerializationError, match="iswap_dg"):
        to_qasm(qc)


# -- reader: interchange syntax ----------------------------------------------------


def test_legacy_aliases_map_to_registry_gates():
    text = (
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[2];\n"
        "u1(0.25) q[0];\n"
        "u2(0.25, 0.5) q[0];\n"
        "u3(0.25, 0.5, 0.75) q[0];\n"
        "cu1(0.25) q[0], q[1];\n"
        "CX q[0], q[1];\n"
        "U(0.1, 0.2, 0.3) q[1];\n"
    )
    parsed = from_qasm(text)
    names = [instr.gate.name for instr in parsed]
    assert names == ["p", "u", "u", "cp", "cx", "u"]
    assert parsed[0].gate.params == (0.25,)
    assert parsed[1].gate.params == (math.pi / 2.0, 0.25, 0.5)


def test_register_broadcast():
    text = (
        "OPENQASM 2.0;\nqreg a[3];\nqreg b[3];\n"
        "h a;\ncx a, b;\ncx a[0], b;\n"
    )
    parsed = from_qasm(text)
    assert parsed.num_qubits == 6
    assert [i.gate.name for i in parsed] == ["h"] * 3 + ["cx"] * 6
    assert [i.qubits for i in parsed[3:6]] == [(0, 3), (1, 4), (2, 5)]
    assert [i.qubits for i in parsed[6:]] == [(0, 3), (0, 4), (0, 5)]


def test_parameter_expressions_and_constants():
    text = (
        "OPENQASM 2.0;\nqreg q[1];\n"
        "rz(pi/2) q[0];\nrz(-pi) q[0];\nrz(2*pi - pi/4) q[0];\n"
        "rz(sin(1.5)) q[0];\nrz(3^2) q[0];\nrz((1+2)*0.5) q[0];\n"
    )
    angles = [i.gate.params[0] for i in from_qasm(text)]
    assert angles == [
        math.pi / 2,
        -math.pi,
        2 * math.pi - math.pi / 4,
        math.sin(1.5),
        9.0,
        1.5,
    ]


def test_user_gate_definition_expansion_and_barrier():
    text = (
        "OPENQASM 2.0;\n"
        "gate flip(theta) a, b { barrier a, b; rx(theta) a; cx a, b; }\n"
        "qreg q[2];\n"
        "flip(0.5) q[0], q[1];\n"
        "barrier q;\n"
    )
    parsed = from_qasm(text)
    assert [i.gate.name for i in parsed] == ["rx", "cx"]
    assert parsed[0].gate.params == (0.5,)


def test_qasm3_register_syntax_and_comments():
    text = (
        "// a comment\nOPENQASM 3.0;\n"
        'include "stdgates.inc";\n'
        "qubit[2] q; /* block\ncomment */ bit[2] c;\n"
        "h q[0];\ncx q[0], q[1];\n"
    )
    parsed = from_qasm(text)
    assert parsed.num_qubits == 2
    assert [i.gate.name for i in parsed] == ["h", "cx"]


# -- reader: rejection paths -------------------------------------------------------


def test_versions_are_gated_through_the_shared_checker():
    with pytest.raises(SerializationError) as err:
        from_qasm("OPENQASM 2.1;\nqreg q[1];\nh q[0];\n")
    assert "2.1" in str(err.value)
    with pytest.raises(SerializationError, match="OPENQASM"):
        from_qasm("qreg q[1];\nh q[0];\n")


@pytest.mark.parametrize(
    "bad",
    [
        "OPENQASM 2.0;\nqreg q[1];\nmystery q[0];\n",
        "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\n",
        "OPENQASM 2.0;\nqreg q[1];\nreset q[0];\n",
        "OPENQASM 2.0;\nh q[0];\n",
        "OPENQASM 2.0;\nqreg q[2];\ncx q[0];\n",
        "OPENQASM 2.0;\nqreg q[2];\nh q[5];\n",
        "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[0];\n",
        "OPENQASM 2.0;\nqreg q[1];\nrz() q[0];\n",
        "OPENQASM 2.0;\n",
        # Parameters must evaluate to finite real angles: non-finite
        # values and arithmetic or domain errors are all malformed.
        *(
            pytest.param(f"OPENQASM 2.0;\nqreg q[1];\n{app} q[0];\n", id=app)
            for app in (
                "rz(1e999)",
                "rz(-1e999)",
                "rz(1e308*10)",
                "rz(1e999-1e999)",
                "rz(2**10000)",
                "rz(exp(1000))",
                "rz(1/0)",
                "rz(ln(0))",
                "rz(sqrt(-1))",
                "rz((-8)^(1/3))",
                "u3(0, 1e999, 0)",
            )
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[1];\n"
            "gate g(a) t { rz(a*1e308*10) t; }\ng(1) q[0];\n",
            id="gate-body-overflow",
        ),
    ],
)
def test_malformed_sources_raise_serialization_error(bad):
    with pytest.raises(SerializationError):
        from_qasm(bad)


def test_save_and_load_roundtrip(tmp_path, rng):
    qc = random_circuit(num_qubits=3, depth=25, seed=9)
    path = tmp_path / "circuit.qasm"
    save_qasm(qc, path, version=3)
    assert_instructions_identical(qc, load_qasm(path))
