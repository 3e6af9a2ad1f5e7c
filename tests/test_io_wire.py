"""Binary wire format: array-equal round-trips, versioning, corruption.

The acceptance property: decoding a template-bound record — with or
without the inlined synthesis section — yields a
:class:`BoundCircuitBatch` whose arrays and simulated statevectors are
``np.array_equal`` to the sender's in-memory IR (rebinding is
deterministic, so fingerprint + thetas is a complete description).
Gate-stream records round-trip instruction-identical with float-bit
parameters, and every malformed blob fails as a
:class:`SerializationError` through the shared
:func:`repro.core.serialization.check_schema_version` gate.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np
import pytest

from repro.core.ansatz import EnQodeAnsatz
from repro.errors import ReproError, SerializationError
from repro.io import wire
from repro.quantum import QuantumCircuit, simulate_statevector
from repro.transpile.bound import BoundCircuit, BoundCircuitBatch
from repro.transpile.euler import (
    PACKED_GENERIC,
    PACKED_SPECIAL,
    PackedSynthesis,
)
from repro.transpile.template import ParametricTemplate

from tests.conftest import random_circuit
from tests.test_io_qasm import assert_instructions_identical
from tests.test_template_batch import branch_cut_thetas


@pytest.fixture(scope="module")
def template(request):
    backend = request.getfixturevalue("line4")
    return ParametricTemplate(EnQodeAnsatz(4, 8), backend, 1)


def _bound(template, rng, batch=8):
    thetas = branch_cut_thetas(template.ansatz.num_parameters, rng)[:batch]
    return template.bind_batch_ir(thetas)


def assert_batches_equal(a, b):
    assert np.array_equal(a.thetas, b.thetas)
    assert len(a.packed) == len(b.packed)
    for left, right in zip(a.packed, b.packed):
        assert np.array_equal(left.angles, right.angles, equal_nan=True)
        assert np.array_equal(left.kinds, right.kinds)
        assert left.specials == right.specials
    for row in range(a.batch_size):
        assert np.array_equal(
            a.statevector_row(row).data, b.statevector_row(row).data
        )


# -- template-bound records --------------------------------------------------------


@pytest.mark.parametrize("include_synthesis", (False, True))
def test_batch_roundtrip_is_array_equal(template, rng, include_synthesis):
    bound = _bound(template, rng)
    blob = wire.dump_batch(bound, include_synthesis=include_synthesis)
    decoded = wire.load(blob, template=template)
    assert_batches_equal(bound, decoded)


@pytest.mark.parametrize("optimization_level", (0, 1))
@pytest.mark.parametrize("num_qubits", (4, 6, 8))
@pytest.mark.parametrize("batch", (1, 64))
def test_roundtrip_sweep_over_qubits_levels_batches(
    num_qubits, optimization_level, batch, rng, request
):
    backend = request.getfixturevalue(
        "segment4" if num_qubits == 4 else "segment8"
    )
    if num_qubits == 6:
        backend = backend.reduced(range(6))
    ansatz = EnQodeAnsatz(num_qubits, 8)
    template = ParametricTemplate(ansatz, backend, optimization_level)
    thetas = rng.uniform(-2 * np.pi, 2 * np.pi, (batch, ansatz.num_parameters))
    bound = template.bind_batch_ir(thetas)
    decoded = wire.load(wire.dump_batch(bound), template=template)
    assert_batches_equal(bound, decoded)


def test_degenerate_angles_with_synthesis_section(template):
    """All-zero and half-pi thetas exercise dropped/special packed rows."""
    num_params = template.ansatz.num_parameters
    thetas = np.vstack(
        [
            np.zeros(num_params),
            np.full(num_params, np.pi / 2.0),
            np.full(num_params, np.pi),
        ]
    )
    bound = template.bind_batch_ir(thetas)
    blob = wire.dump_batch(bound, include_synthesis=True)
    assert_batches_equal(bound, wire.load(blob, template=template))


def test_single_bound_circuit_dumps_compact(template, rng):
    bound = _bound(template, rng)
    circuit = bound.circuit(3)
    blob = wire.dump_circuit(circuit)
    decoded = wire.load(blob, template=template)
    assert decoded.batch_size == 1
    assert np.array_equal(
        decoded.statevector_row(0).data, bound.statevector_row(3).data
    )
    # The compact record is a fingerprint + one theta row — far below
    # even a per-circuit instruction stream.
    assert len(blob) < len(wire.dump_circuit(circuit, gate_stream=True))


def test_take_subsets_scattered_rows(template, rng):
    bound = _bound(template, rng)
    rows = [5, 0, 3]
    subset = bound.take(rows)
    assert subset.batch_size == 3
    for i, row in enumerate(rows):
        assert np.array_equal(
            subset.statevector_row(i).data, bound.statevector_row(row).data
        )
        assert_instructions_identical(
            subset.circuit(i).materialize(), bound.circuit(row).materialize()
        )
    with pytest.raises(Exception):
        bound.take([99])


def test_dump_circuits_groups_shared_batch_rows(template, rng):
    bound = _bound(template, rng)
    circuits = [bound.circuit(row) for row in (2, 4, 6)]
    blob = wire.dump_circuits(circuits)
    assert wire.describe(blob)["kind"] == "template-batch"
    decoded = wire.load(blob, template=template)
    for i, row in enumerate((2, 4, 6)):
        assert np.array_equal(
            decoded.statevector_row(i).data, bound.statevector_row(row).data
        )


def test_fingerprint_identity_and_sensitivity(template, line4, segment4):
    same = ParametricTemplate(EnQodeAnsatz(4, 8), line4, 1)
    assert same.fingerprint == template.fingerprint
    assert len(template.fingerprint) == 16
    other_level = ParametricTemplate(EnQodeAnsatz(4, 8), line4, 0)
    other_layers = ParametricTemplate(EnQodeAnsatz(4, 6), line4, 1)
    other_backend = ParametricTemplate(EnQodeAnsatz(4, 8), segment4, 1)
    fingerprints = {
        template.fingerprint,
        other_level.fingerprint,
        other_layers.fingerprint,
        other_backend.fingerprint,
    }
    assert len(fingerprints) == 4


# -- gate-stream records -----------------------------------------------------------


def test_gate_stream_roundtrip_instruction_identical(rng):
    for seed in range(4):
        circuit = random_circuit(num_qubits=4, depth=30, seed=seed)
        decoded = wire.load(wire.dump_circuit(circuit))
        assert_instructions_identical(circuit, decoded)
        assert decoded.name == circuit.name


def test_gate_stream_batch_and_empty(rng):
    circuits = [random_circuit(3, 20, seed) for seed in range(3)]
    decoded = wire.load(wire.dump_circuits(circuits, gate_stream=True))
    assert len(decoded) == 3
    for original, back in zip(circuits, decoded):
        assert_instructions_identical(original, back)
    assert wire.load(wire.dump_circuits([])) == []


def test_materialized_bound_circuit_as_gate_stream(template, rng):
    bound = _bound(template, rng)
    circuit = bound.circuit(0)
    decoded = wire.load(wire.dump_circuit(circuit, gate_stream=True))
    assert_instructions_identical(circuit.materialize(), decoded)
    assert np.array_equal(
        decoded.to_matrix() @ np.eye(16)[:, 0],
        bound.statevector_row(0).data,
    )


def test_unitary_gate_has_no_wire_code(rng):
    from repro.quantum.circuit import QuantumCircuit
    from repro.quantum.gates import unitary_gate

    qc = QuantumCircuit(1)
    qc.append(unitary_gate(np.eye(2), label="mystery"), (0,))
    with pytest.raises(SerializationError, match="mystery"):
        wire.dump_circuit(qc)


# -- versioning and corruption -----------------------------------------------------


def test_bad_magic_rejected(template, rng):
    blob = bytearray(wire.dump_batch(_bound(template, rng)))
    blob[:4] = b"NOPE"
    with pytest.raises(SerializationError, match="magic"):
        wire.load(bytes(blob), template=template)


def test_version_mismatch_names_found_and_expected(template, rng):
    blob = bytearray(wire.dump_batch(_bound(template, rng)))
    blob[4] = 99
    with pytest.raises(SerializationError) as err:
        wire.load(bytes(blob), template=template)
    assert "99" in str(err.value)
    assert str(wire.WIRE_SCHEMA_VERSION) in str(err.value)


def test_unknown_kind_rejected(template, rng):
    blob = bytearray(wire.dump_batch(_bound(template, rng)))
    blob[5] = 200
    with pytest.raises(SerializationError, match="kind"):
        wire.load(bytes(blob), template=template)


def test_truncation_and_trailing_garbage_rejected(template, rng):
    blob = wire.dump_batch(_bound(template, rng))
    with pytest.raises(SerializationError, match="truncated"):
        wire.load(blob[: len(blob) // 2], template=template)
    with pytest.raises(SerializationError, match="trailing"):
        wire.load(blob + b"xx", template=template)


def test_template_required_and_fingerprint_checked(template, line4, rng):
    blob = wire.dump_batch(_bound(template, rng))
    with pytest.raises(SerializationError, match="template"):
        wire.load(blob)
    mismatched = ParametricTemplate(EnQodeAnsatz(4, 6), line4, 1)
    with pytest.raises(SerializationError, match="fingerprint|template"):
        wire.load(blob, template=mismatched)
    resolved = wire.load(
        blob,
        template_resolver=lambda fp: template
        if fp == template.fingerprint
        else None,
    )
    assert resolved.batch_size == 8


def test_unknown_gate_code_rejected(rng):
    circuit = random_circuit(2, 5, seed=1)
    blob = bytearray(wire.dump_circuit(circuit))
    # First instruction's gate code sits right after the body header.
    offset = 6 + 4 + len(circuit.name.encode()) + 4
    blob[offset] = 250
    with pytest.raises(SerializationError, match="code"):
        wire.load(bytes(blob))


# -- corrupted records -------------------------------------------------------------
#
# Each case builds a record holding a field no encoder writes.  The
# decoder must refuse it with a SerializationError: never decode it, and
# never leak a UnicodeDecodeError, a KeyError or a numpy warning.


@pytest.fixture(scope="module")
def flush(segment4):
    """A tiny fitted encoder's 4-row pipeline run, with its template."""
    from repro.core.config import EnQodeConfig
    from repro.core.encoder import EnQodeEncoder

    rng = np.random.default_rng(77)
    encoder = EnQodeEncoder(
        segment4,
        EnQodeConfig(
            num_qubits=4,
            max_clusters=2,
            offline_restarts=1,
            offline_max_iterations=25,
        ),
    )
    data = np.abs(rng.normal(size=(20, 16))) + 0.1
    encoder.fit(data)
    encoded, report = encoder.pipeline.run_reported(data[:4])
    return encoded, report, encoder.pipeline.lower.template()


def _decode(blob: bytes, template):
    if blob[5:6] == bytes([wire.KIND_ENCODED_BATCH]):
        return wire.load_encoded_batch(blob, template=template)
    return wire.load(blob, template=template)


def _patch(blob: bytes, offset: int, payload: bytes) -> bytes:
    return blob[:offset] + payload + blob[offset + len(payload):]


_HEADER = 6  # magic, version, kind
_BODY = struct.calcsize("<B16sHII")  # a template-bound body's own header
_NAME = _HEADER + 4  # a gate stream's name, after its u16 width and length
_NAN = struct.pack("<d", np.nan)
_INF = struct.pack("<d", np.inf)


def _gate_stream(param: float = 0.5) -> bytes:
    qc = QuantumCircuit(2, name="ab")
    qc.rz(param, 0)
    return wire.dump_circuit(qc)


def _two_qubit_stream() -> QuantumCircuit:
    qc = QuantumCircuit(2, name="ab")
    qc.cx(0, 1)
    return qc


def _gate_parameter(payload: bytes) -> bytes:
    # name "ab", u32 instruction count, u8 gate code, u16 qubit
    return _patch(_gate_stream(), _NAME + 2 + 4 + 1 + 2, payload)


def _template_record(template, *, theta=None, synthesis=None) -> bytes:
    """A 2-row record with row 0's second theta or a byte of the first
    synthesis run (``(offset, payload)`` from its kind bytes) patched."""
    rows, params = 2, template.ansatz.num_parameters
    bound = template.bind_batch_ir(np.full((rows, params), 0.3))
    blob = wire.dump_batch(bound, include_synthesis=synthesis is not None)
    if theta is not None:
        blob = _patch(blob, _HEADER + _BODY + 8, theta)
    if synthesis is not None:
        offset, payload = synthesis
        kinds = _HEADER + _BODY + rows * params * 8 + 4
        blob = _patch(blob, kinds + offset, payload)
    return blob


def _specials(template, kind: int, specials: dict) -> bytes:
    """A synthesis record whose first run gives row 0 ``kind`` and the
    special-op table ``specials``."""
    params = template.ansatz.num_parameters
    bound = template.bind_batch_ir(np.full((2, params), 0.3))
    first = bound.packed[0]
    kinds = first.kinds.copy()
    kinds[0] = kind
    packed = [PackedSynthesis(first.angles, kinds, specials)]
    return wire.dump_batch(
        BoundCircuitBatch(template, bound.thetas, packed + bound.packed[1:]),
        include_synthesis=True,
    )


def _response(flush, **changes) -> bytes:
    encoded, report, _ = flush
    first = dataclasses.replace(encoded[0], **changes)
    return wire.dump_encoded_batch([first] + encoded[1:], report)


def _response_marked_special(flush) -> bytes:
    """A kind-4 response whose kind byte marks a generic row special."""
    encoded, report, template = flush
    kinds = encoded[0].circuit.bound_batch.packed[0].kinds
    row = int(np.flatnonzero(kinds == PACKED_GENERIC)[0])
    rows, params = len(encoded), template.ansatz.num_parameters
    metadata = rows * (8 + 4 + 4 + 4 + 8) + struct.calcsize("<4dIb")
    offset = _HEADER + 4 + metadata + _BODY + rows * params * 8 + 4 + row
    blob = wire.dump_encoded_batch(encoded, report)
    return _patch(blob, offset, bytes([PACKED_SPECIAL]))


_SX = [("sx", ())]

#: Corrupted records by name: each builds its blob from the ``flush``
#: fixture ``(encoded, report, template)``.
CORRUPTIONS = {
    "name-not-utf8": lambda f: _patch(_gate_stream(), _NAME, b"\xff\xfe"),
    "gate-parameter-nan": lambda f: _gate_parameter(_NAN),
    "gate-parameter-inf": lambda f: _gate_parameter(_INF),
    "gate-on-repeated-qubit": lambda f: _patch(
        wire.dump_circuit(_two_qubit_stream()), _NAME + 2 + 4 + 1 + 2,
        struct.pack("<H", 0),
    ),
    "theta-nan": lambda f: _template_record(f[2], theta=_NAN),
    "theta-inf": lambda f: _template_record(f[2], theta=_INF),
    "synthesis-angle-inf": lambda f: _template_record(
        f[2], synthesis=(2, _INF)
    ),
    "synthesis-angle-minus-inf": lambda f: _template_record(
        f[2], synthesis=(2 + 8, struct.pack("<d", -np.inf))
    ),
    "kind-byte-3": lambda f: _template_record(f[2], synthesis=(0, b"\x03")),
    "special-row-out-of-range": lambda f: _specials(
        f[2], PACKED_SPECIAL, {0: _SX, 9: _SX}
    ),
    "special-entry-on-generic-row": lambda f: _specials(
        f[2], PACKED_GENERIC, {0: _SX}
    ),
    "special-row-without-ops": lambda f: _specials(f[2], PACKED_SPECIAL, {}),
    "special-op-nan": lambda f: _specials(
        f[2], PACKED_SPECIAL, {0: [("rz", (np.nan,))]}
    ),
    "special-op-not-synthesized": lambda f: _specials(
        f[2], PACKED_SPECIAL, {0: [("h", ())]}
    ),
    "response-fidelity-nan": lambda f: _response(f, ideal_fidelity=np.nan),
    "response-compile-time-inf": lambda f: _response(f, compile_time=np.inf),
    "response-row-marked-special": _response_marked_special,
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupted_record_raises_serialization_error(flush, case):
    blob = CORRUPTIONS[case](flush)
    with pytest.raises(SerializationError):
        _decode(blob, flush[2])


def test_uncorrupted_builders_decode(flush):
    """The corruption builders' unpatched records are sound, so each
    case above fails on its one corrupted field."""
    template = flush[2]
    for blob in (
        _gate_stream(),
        _template_record(template),
        _template_record(template, synthesis=(0, b"\x00")),
        _specials(template, PACKED_SPECIAL, {0: _SX}),
        _response(flush),
    ):
        _assert_sound(_decode(blob, template))


def _mutate(blob: bytes, rng) -> bytes:
    """One random bit flip, byte deletion or byte insertion."""
    data = bytearray(blob)
    pos = int(rng.integers(len(data)))
    op = rng.integers(3)
    if op == 0:
        data[pos] ^= 1 << int(rng.integers(8))
    elif op == 1:
        del data[pos]
    else:
        data.insert(pos, int(rng.integers(256)))
    return bytes(data)


def _assert_sound(decoded) -> None:
    """Every decoded circuit materializes, simulates, holds finite angles."""
    if isinstance(decoded, tuple):
        samples, report = decoded
        assert all(np.isfinite(s.ideal_fidelity) for s in samples)
        assert all(np.isfinite(s.compile_time) for s in samples)
        circuits = [sample.circuit for sample in samples]
    elif isinstance(decoded, BoundCircuitBatch):
        circuits = [decoded.circuit(row) for row in range(decoded.batch_size)]
    elif isinstance(decoded, QuantumCircuit):
        circuits = [decoded]
    else:
        circuits = decoded
    for circuit in circuits:
        for instruction in circuit:
            assert np.all(np.isfinite(instruction.gate.params))
        # A corrupted width field can describe a real, wider circuit:
        # simulate only what fits in a few MB.
        if circuit.num_qubits <= 12:
            simulate_statevector(circuit)


#: Mutations per record kind in the seeded fuzz below.
MUTATIONS = 200


def test_mutated_records_raise_repro_errors_or_decode_sound(flush):
    """Seeded byte mutations of every record kind (kinds 1, 1 with
    synthesis, 2, 3 and 4): only ReproError subclasses escape the
    decoders, and whatever decodes is sound."""
    encoded, report, template = flush
    bound = encoded[0].circuit.bound_batch
    eager = [bound.circuit(row).materialize() for row in range(4)]
    records = (
        wire.dump_batch(bound),
        wire.dump_batch(bound, include_synthesis=True),
        wire.dump_circuit(eager[0]),
        wire.dump_circuits(eager, gate_stream=True),
        wire.dump_encoded_batch(encoded, report),
    )
    rng = np.random.default_rng(7)
    for record in records:
        for _ in range(MUTATIONS):
            try:
                decoded = _decode(_mutate(record, rng), template)
            except ReproError:
                continue
            _assert_sound(decoded)


# -- service integration -----------------------------------------------------------


@pytest.fixture(scope="module")
def served(request):
    """A tiny fitted service plus one flushed batch of responses."""
    from repro.core.config import EnQodeConfig
    from repro.core.encoder import EnQodeEncoder
    from repro.service import EncodingService

    segment4 = request.getfixturevalue("segment4")
    rng = np.random.default_rng(77)
    config = EnQodeConfig(
        num_qubits=4,
        max_clusters=2,
        offline_restarts=1,
        offline_max_iterations=25,
    )
    encoder = EnQodeEncoder(segment4, config)
    data = np.abs(rng.normal(size=(20, 16))) + 0.1
    encoder.fit(data)
    service = EncodingService()
    service.register("cls", encoder)
    for row in data[:6]:
        service.submit(row, key="cls")
    responses = service.flush()
    return service, responses


def test_service_export_wire_rehydrates_array_equal(served):
    service, responses = served
    blob = service.export_wire(responses)
    summary = wire.describe(blob)
    assert summary["kind"] == "template-batch"
    assert summary["num_circuits"] == len(responses)
    batch = service.registry.rehydrate_wire(blob)
    for row, response in enumerate(responses):
        assert isinstance(response.circuit, BoundCircuit)
        assert np.array_equal(
            batch.statevector_row(row).data,
            response.circuit.ir_statevector().data,
        )


def test_response_to_wire_and_to_qasm(served):
    from repro.io.qasm import from_qasm

    service, responses = served
    response = responses[0]
    decoded = service.registry.rehydrate_wire(response.to_wire())
    assert np.array_equal(
        decoded.statevector_row(0).data,
        response.circuit.ir_statevector().data,
    )
    for version, text in zip((2, 3), (
        response.to_qasm(version=2), response.to_qasm(version=3)
    )):
        assert text.startswith(f"OPENQASM {version}.0;")
        assert_instructions_identical(
            response.circuit.materialize(), from_qasm(text)
        )


def test_rehydrate_unknown_fingerprint_names_known_ones(served):
    from repro.service import EncoderRegistry

    _, responses = served
    empty = EncoderRegistry()
    with pytest.raises(SerializationError, match="fingerprint"):
        empty.rehydrate_wire(responses[0].to_wire())


def test_rehydrate_gate_stream_needs_no_template(served):
    service, responses = served
    circuit = responses[0].circuit.materialize()
    decoded = service.registry.rehydrate_wire(wire.dump_circuit(circuit))
    assert_instructions_identical(circuit, decoded)
