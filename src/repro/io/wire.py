"""Versioned compact binary wire format for (bound) circuits.

ROADMAP item 3's transport layer: a template-bound circuit is fully
determined by *which* template produced it plus its ``(P,)`` angle row,
so the wire record for a whole :class:`~repro.transpile.bound.
BoundCircuitBatch` is a fingerprint plus a ``(B, P)`` float block — a
few hundred bytes per circuit instead of a multi-kilobyte gate list.
Because :meth:`~repro.transpile.template.ParametricTemplate.
bind_batch_ir` is deterministic and float-bit reproducible, the decoder
can rebind from the thetas alone and recover an IR whose simulation is
``np.array_equal`` to the sender's; a flag optionally inlines the packed
ZYZ synthesis section (NaN-marked Rz angle rows, kind bytes, and special
ops straight out of :class:`~repro.transpile.euler.PackedSynthesis`) for
zero-recompute decoding at ~3x the payload.

Layout (all integers little-endian)::

    magic    b"RQWF"
    u8       WIRE_SCHEMA_VERSION
    u8       record kind (1/2/3 below)

    kind 1 — template-bound batch:
      u8     flags (bit 0: synthesis section present)
      16s    template fingerprint (ParametricTemplate.fingerprint)
      u16    num_qubits   u32 batch   u32 num_params
      f64[batch * num_params]          bound thetas, C order
      synthesis section when flagged: u32 num_runs, then per run
        u8[batch] kinds, f64[batch * 3] angles, u32 num_specials,
        per special: u32 row, u16 num_ops,
        per op: u8 gate code + its f64 params

    kind 2 — one explicit circuit;  kind 3 — u32 count, then circuits:
      u16    num_qubits   u16 name length   name bytes (utf-8)
      u32    num_instructions
      per instruction: u8 gate code, u16 per qubit, f64 per param
      (arity/param counts fixed by the gate-code table)

    kind 4 — encoded-batch response (the process backend's flush
    payload: everything ``EncodePipeline.run_reported`` produced for a
    batch, minus the target rows — the receiver recomputes those
    deterministically from the samples it already holds):
      u32    batch (must match the bound-batch body below)
      f64[batch] ideal fidelities     u32[batch] cluster indices
      u32[batch] optimizer iterations u32[batch] optimizer evaluations
      f64[batch] compile times
      f64 x4 route/finetune/bind/lower stage seconds
      u32    template_binds   i8 template_hit (-1 none / 0 miss / 1 hit)
      then a kind-1 template-bound body verbatim (flags, fingerprint,
      dims, thetas, optional synthesis section)

Decoding a kind-1 record needs the matching template on the receiving
side — pass one explicitly or give :func:`load` a ``template_resolver``
(``EncoderRegistry.rehydrate_wire`` resolves against its registered
encoders' template cache).  Version and fingerprint mismatches raise
:class:`~repro.errors.SerializationError` through the same
:func:`repro.core.serialization.check_schema_version` gate as the JSON
model bundles.  So does every field no encoder writes: a name that is
not UTF-8, a gate on a repeated qubit, a non-finite theta, gate
parameter, fidelity or time, an infinite synthesis angle (NaN is the
skip marker), a row kind outside 0-2, and a special row that is out of
range, disagrees with its kind or replays a gate synthesis never emits.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.core.serialization import check_schema_version
from repro.errors import SerializationError
from repro.io.qasm import GATE_SIGNATURES
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.gates import Gate
from repro.quantum.instruction import Instruction
from repro.transpile.bound import BoundCircuit, BoundCircuitBatch
from repro.transpile.euler import PACKED_SPECIAL, PackedSynthesis

MAGIC = b"RQWF"

#: Wire schema.  Version 1: the record kinds documented above.
WIRE_SCHEMA_VERSION = 1

KIND_TEMPLATE_BATCH = 1
KIND_GATE_STREAM = 2
KIND_GATE_STREAM_BATCH = 3
KIND_ENCODED_BATCH = 4

_KIND_NAMES = {
    KIND_TEMPLATE_BATCH: "template-batch",
    KIND_GATE_STREAM: "gate-stream",
    KIND_GATE_STREAM_BATCH: "gate-stream-batch",
    KIND_ENCODED_BATCH: "encoded-batch",
}

_FLAG_SYNTHESIS = 0x01

#: Canonical gate-code table: wire code = index.  Append-only — codes
#: are part of the wire contract, so new gates go at the end.
WIRE_GATE_NAMES = (
    "id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg",
    "rx", "ry", "rz", "p", "u", "cx", "cy", "cz", "ch", "cp", "crz",
    "cry", "swap", "iswap", "ecr", "rzz",
)
_CODE_OF = {name: code for code, name in enumerate(WIRE_GATE_NAMES)}


class _Cursor:
    """Bounds-checked forward reader over a wire blob."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, size: int) -> bytes:
        end = self.pos + size
        if end > len(self.data):
            raise SerializationError(
                f"truncated wire record: wanted {size} bytes at offset "
                f"{self.pos}, only {len(self.data) - self.pos} left"
            )
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def done(self) -> None:
        if self.pos != len(self.data):
            raise SerializationError(
                f"wire record has {len(self.data) - self.pos} trailing "
                "bytes after the last field"
            )


def _header(kind: int) -> bytes:
    return MAGIC + struct.pack("<BB", WIRE_SCHEMA_VERSION, kind)


def _gate_code(name: str) -> int:
    code = _CODE_OF.get(name)
    if code is None:
        raise SerializationError(
            f"gate {name!r} has no wire gate code and cannot be exported "
            "(matrix-defined unitary_gate wrappers and generic *_dg "
            f"inverses are simulation-only); exportable gates: "
            f"{sorted(_CODE_OF)}"
        )
    return code


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def dump_batch(
    batch: BoundCircuitBatch, *, include_synthesis: bool = False
) -> bytes:
    """Encode a whole bound batch as one template-bound wire record.

    With ``include_synthesis=False`` (the default, and the compact
    choice) the record carries only the fingerprint and the theta block;
    the decoder rebinds.  ``include_synthesis=True`` inlines the packed
    ZYZ section so decoding never recomputes a synthesis.
    """
    out = bytearray(_header(KIND_TEMPLATE_BATCH))
    _encode_template_body(batch, include_synthesis, out)
    return bytes(out)


def _encode_template_body(
    batch: BoundCircuitBatch, include_synthesis: bool, out: bytearray
) -> None:
    """Append a kind-1 template-bound body (shared with kind 4)."""
    thetas = np.ascontiguousarray(batch.thetas, dtype=np.float64)
    num_rows, num_params = thetas.shape
    out += struct.pack(
        "<B16sHII",
        _FLAG_SYNTHESIS if include_synthesis else 0,
        batch.template.fingerprint,
        batch.num_qubits,
        num_rows,
        num_params,
    )
    out += thetas.tobytes()
    if include_synthesis:
        out += struct.pack("<I", len(batch.packed))
        for packed in batch.packed:
            out += np.ascontiguousarray(packed.kinds, np.uint8).tobytes()
            out += np.ascontiguousarray(packed.angles, np.float64).tobytes()
            out += struct.pack("<I", len(packed.specials))
            for row in sorted(packed.specials):
                ops = packed.specials[row]
                out += struct.pack("<IH", row, len(ops))
                for name, params in ops:
                    out += struct.pack("<B", _gate_code(name))
                    if params:
                        out += struct.pack(f"<{len(params)}d", *params)


def dump_encoded_batch(
    encoded, report, *, include_synthesis: bool = True
) -> bytes:
    """Encode one flush's full ``run_reported`` outcome as a response
    record (kind 4): per-sample metadata + stage report + the bound
    batch.

    Every sample must be an :class:`~repro.core.pipeline.EncodedSample`
    whose circuits are rows of one :class:`BoundCircuitBatch` — exactly
    what one pipeline run produces.  The default
    ``include_synthesis=True`` trades ~3x payload for a zero-recompute
    decode: the process backend's parent
    side reconstructs the batch from the packed arrays instead of
    rebinding, keeping response decode off the hot path's flop budget.
    Target rows deliberately do not cross the wire — the decoder's
    caller recomputes them (``EncodePipeline.prepare`` is deterministic)
    from the samples it already has, halving the payload.
    """
    encoded = list(encoded)
    if not encoded:
        raise SerializationError("cannot encode an empty flush response")
    circuits = [sample.transpiled.circuit for sample in encoded]
    if not all(isinstance(c, BoundCircuit) for c in circuits) or len(
        {id(c.bound_batch) for c in circuits}
    ) != 1:
        raise SerializationError(
            "encoded-batch records need the samples of one pipeline "
            "run (rows of one BoundCircuitBatch)"
        )
    batch = circuits[0].bound_batch.take([c.bound_row for c in circuits])
    out = bytearray(_header(KIND_ENCODED_BATCH))
    out += struct.pack("<I", len(encoded))
    out += np.asarray(
        [sample.ideal_fidelity for sample in encoded], dtype="<f8"
    ).tobytes()
    out += np.asarray(
        [sample.cluster_index for sample in encoded], dtype="<u4"
    ).tobytes()
    out += np.asarray(
        [sample.optimizer_iterations for sample in encoded], dtype="<u4"
    ).tobytes()
    out += np.asarray(
        [sample.optimizer_evaluations for sample in encoded], dtype="<u4"
    ).tobytes()
    out += np.asarray(
        [sample.compile_time for sample in encoded], dtype="<f8"
    ).tobytes()
    out += struct.pack(
        "<4dIb",
        report.route_seconds,
        report.finetune_seconds,
        report.bind_seconds,
        report.lower_seconds,
        report.template_binds,
        -1 if report.template_hit is None else int(report.template_hit),
    )
    _encode_template_body(batch, include_synthesis, out)
    return bytes(out)


def _encode_circuit_body(circuit: QuantumCircuit, out: bytearray) -> None:
    name_bytes = circuit.name.encode("utf-8")
    out += struct.pack("<HH", circuit.num_qubits, len(name_bytes))
    out += name_bytes
    instructions = list(circuit)
    out += struct.pack("<I", len(instructions))
    for instr in instructions:
        code = _gate_code(instr.name)
        arity, num_params = GATE_SIGNATURES[instr.name]
        out += struct.pack(f"<B{arity}H", code, *instr.qubits)
        if num_params:
            out += struct.pack(f"<{num_params}d", *instr.gate.params)


def dump_circuit(
    circuit: QuantumCircuit, *, gate_stream: bool = False
) -> bytes:
    """Encode one circuit.

    A :class:`BoundCircuit` becomes a single-row template-bound record
    (compact, needs the template to decode) unless ``gate_stream=True``
    forces the explicit self-contained instruction stream; any other
    circuit always gets the gate stream.
    """
    if isinstance(circuit, BoundCircuit) and not gate_stream:
        return dump_batch(circuit.bound_batch.take([circuit.bound_row]))
    out = bytearray(_header(KIND_GATE_STREAM))
    _encode_circuit_body(circuit, out)
    return bytes(out)


def dump_circuits(
    circuits, *, include_synthesis: bool = False, gate_stream: bool = False
) -> bytes:
    """Encode several circuits as one record.

    When every circuit is a :class:`BoundCircuit` row of the *same*
    batch (the shape a service flush produces), this emits one
    template-bound record over exactly those rows; otherwise each
    circuit is written as an explicit gate stream.
    """
    circuits = list(circuits)
    if (
        circuits
        and not gate_stream
        and all(isinstance(c, BoundCircuit) for c in circuits)
        and len({id(c.bound_batch) for c in circuits}) == 1
    ):
        batch = circuits[0].bound_batch.take(
            [c.bound_row for c in circuits]
        )
        return dump_batch(batch, include_synthesis=include_synthesis)
    out = bytearray(_header(KIND_GATE_STREAM_BATCH))
    out += struct.pack("<I", len(circuits))
    for circuit in circuits:
        _encode_circuit_body(circuit, out)
    return bytes(out)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def _check_header(cursor: _Cursor) -> int:
    magic = cursor.take(4)
    if magic != MAGIC:
        raise SerializationError(
            f"not an EnQode wire record (magic {bytes(magic)!r}, "
            f"expected {MAGIC!r})"
        )
    version, kind = cursor.unpack("<BB")
    check_schema_version(
        version,
        WIRE_SCHEMA_VERSION,
        "EnQode wire record",
        remedy="re-export it with a matching build",
    )
    return kind


def _finite(values, what: str):
    """``values`` unchanged, or :class:`SerializationError` if any is
    NaN or infinite (no decoded angle, fidelity or time may be).

    A gate's parameter tuple is checked in Python: a special synthesis
    row carries a few of them, and a numpy call apiece would cost more
    than decoding the row.
    """
    if isinstance(values, tuple):
        finite = all(map(math.isfinite, values))
    else:
        finite = np.isfinite(values).all()
    if not finite:
        raise SerializationError(f"wire record carries a non-finite {what}")
    return values


#: The gates a special synthesis row may replay (``synthesize_1q``'s).
_SPECIAL_OPS = frozenset({"rz", "sx", "x"})


def _decode_ops(cursor: _Cursor, count: int) -> list:
    ops = []
    for _ in range(count):
        (code,) = cursor.unpack("<B")
        name = _decode_gate_name(code)
        if name not in _SPECIAL_OPS:
            raise SerializationError(
                f"special synthesis row replays {name!r}; only "
                f"{sorted(_SPECIAL_OPS)} are synthesized"
            )
        num_params = GATE_SIGNATURES[name][1]
        params = cursor.unpack(f"<{num_params}d") if num_params else ()
        ops.append((name, _finite(params, f"{name} parameter")))
    return ops


def _decode_gate_name(code: int) -> str:
    if code >= len(WIRE_GATE_NAMES):
        raise SerializationError(
            f"wire record uses unknown gate code {code} (this build "
            f"knows codes 0..{len(WIRE_GATE_NAMES) - 1})"
        )
    return WIRE_GATE_NAMES[code]


def _decode_template_batch(
    cursor: _Cursor, template, template_resolver
) -> BoundCircuitBatch:
    flags, fingerprint, num_qubits, num_rows, num_params = cursor.unpack(
        "<B16sHII"
    )
    if template is None:
        if template_resolver is None:
            raise SerializationError(
                "decoding a template-bound wire record needs the "
                "producing template: pass template= or template_resolver= "
                "(EncoderRegistry.rehydrate_wire resolves automatically)"
            )
        template = template_resolver(fingerprint)
        if template is None:
            raise SerializationError(
                "no known template matches wire fingerprint "
                f"{fingerprint.hex()}"
            )
    if template.fingerprint != fingerprint:
        raise SerializationError(
            f"wire record was bound by template {fingerprint.hex()}, "
            f"but the provided template is {template.fingerprint.hex()} "
            "(different ansatz, backend, or optimization level)"
        )
    if num_params != template.ansatz.num_parameters:
        raise SerializationError(
            f"wire record carries {num_params} parameters per row, "
            f"template expects {template.ansatz.num_parameters}"
        )
    if num_qubits != template.num_physical_qubits:
        raise SerializationError(
            f"wire record is {num_qubits} qubits wide, template binds "
            f"{template.num_physical_qubits}"
        )
    thetas = np.frombuffer(
        cursor.take(num_rows * num_params * 8), dtype="<f8"
    ).reshape(num_rows, num_params).copy()
    _finite(thetas, "theta")
    if not flags & _FLAG_SYNTHESIS:
        cursor.done()
        # Rebinding is deterministic and float-bit reproducible, so this
        # reconstructs the sender's IR exactly (asserted array-equal in
        # tests/test_io_wire.py).
        return template.bind_batch_ir(thetas)
    (num_runs,) = cursor.unpack("<I")
    if num_runs != len(template._parametric_runs):
        raise SerializationError(
            f"wire record has {num_runs} synthesis runs, template has "
            f"{len(template._parametric_runs)}"
        )
    packed, kind_bytes, angle_bytes, listed = [], [], [], 0
    for _ in range(num_runs):
        kind_bytes.append(cursor.take(num_rows))
        angle_bytes.append(cursor.take(num_rows * 3 * 8))
        kinds = np.frombuffer(kind_bytes[-1], dtype=np.uint8).copy()
        angles = np.frombuffer(angle_bytes[-1], dtype="<f8").reshape(
            num_rows, 3
        ).copy()
        (num_specials,) = cursor.unpack("<I")
        listed += num_specials
        specials = {}
        for _ in range(num_specials):
            row, num_ops = cursor.unpack("<IH")
            if (
                row >= num_rows
                or kinds[row] != PACKED_SPECIAL
                or row in specials
            ):
                raise SerializationError(
                    f"wire synthesis section lists special row {row}, "
                    f"which is out of range, repeated or not marked special"
                )
            specials[row] = _decode_ops(cursor, num_ops)
        packed.append(PackedSynthesis(angles, kinds, specials))
    cursor.done()
    _check_synthesis(b"".join(kind_bytes), b"".join(angle_bytes), listed)
    return BoundCircuitBatch(template, thetas, packed)


def _check_synthesis(kinds: bytes, angles: bytes, listed: int) -> None:
    """Refuse row kinds and angles no synthesis writes.

    Takes every run's raw kind and angle bytes at once: a 6-qubit record
    holds about 50 runs, and the process backend decodes one record per
    flush, so per-run numpy checks would cost more than the decode.
    ``listed`` counts the special rows whose ops the record lists.
    """
    highest = np.frombuffer(kinds, dtype=np.uint8).max(initial=0)
    if highest > PACKED_SPECIAL:  # the kinds are 0, 1 and 2
        raise SerializationError(
            f"wire synthesis section has row kind {highest}, "
            f"outside 0-{PACKED_SPECIAL}"
        )
    # Each listed special row was checked to be marked special as it was
    # read, so equal counts mean every marked row lists its ops.
    if kinds.count(PACKED_SPECIAL) != listed:
        raise SerializationError(
            "wire synthesis section marks a row special without listing "
            "its ops"
        )
    # NaN marks a skipped Rz slot; an infinite angle is corruption.
    if np.isinf(np.frombuffer(angles, dtype="<f8")).any():
        raise SerializationError(
            "wire synthesis section carries an infinite angle"
        )


def _decode_circuit_body(cursor: _Cursor) -> QuantumCircuit:
    num_qubits, name_length = cursor.unpack("<HH")
    try:
        name = cursor.take(name_length).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SerializationError(
            f"wire circuit name is not valid UTF-8: {exc}"
        ) from None
    (num_instructions,) = cursor.unpack("<I")
    instructions = []
    for _ in range(num_instructions):
        (code,) = cursor.unpack("<B")
        gate_name = _decode_gate_name(code)
        arity, num_params = GATE_SIGNATURES[gate_name]
        qubits = cursor.unpack(f"<{arity}H")
        if any(q >= num_qubits for q in qubits):
            raise SerializationError(
                f"wire instruction {gate_name} on qubits {qubits} is out "
                f"of range for a {num_qubits}-qubit circuit"
            )
        if len(set(qubits)) != arity:
            raise SerializationError(
                f"wire instruction {gate_name} repeats a qubit: {qubits}"
            )
        params = cursor.unpack(f"<{num_params}d") if num_params else ()
        _finite(params, f"{gate_name} parameter")
        # Lazy matrices, exactly like the template materialization path:
        # params carry the float bits, the matrix builds on demand.
        instructions.append(
            Instruction.trusted(Gate.trusted(gate_name, arity, params), qubits)
        )
    return QuantumCircuit.trusted(num_qubits, name, instructions)


def load_encoded_batch(
    data: bytes, *, template=None, template_resolver=None, targets=None
):
    """Decode a kind-4 encoded-batch record back into
    ``(list[EncodedSample], PipelineRunReport)`` — ``run_reported``'s
    return contract, reconstructed on the receiving side.

    Thetas, fidelities, cluster indices, and the optional synthesis
    section cross as raw little-endian arrays, and each sample's
    ``transpiled`` result is rebuilt through the *same*
    ``template._wrap_result(bound.circuit(row))`` call ``bind_batch``
    makes, so the decoded samples are float-bit identical to the
    sender's.  ``targets`` (the ``(B, 2**n)`` prepared amplitude rows,
    which never cross the wire) fills each sample's ``target``; pass
    the output of ``pipeline.prepare(samples)`` — deterministic, so it
    equals the sender's — or ``None`` to leave targets unset.
    """
    from repro.core.pipeline import EncodedSample, PipelineRunReport

    cursor = _Cursor(bytes(data))
    kind = _check_header(cursor)
    if kind != KIND_ENCODED_BATCH:
        raise SerializationError(
            f"expected an encoded-batch record, got kind "
            f"{_KIND_NAMES.get(kind, kind)!r}"
        )
    (batch_size,) = cursor.unpack("<I")
    fidelities = np.frombuffer(cursor.take(batch_size * 8), dtype="<f8")
    clusters = np.frombuffer(cursor.take(batch_size * 4), dtype="<u4")
    iterations = np.frombuffer(cursor.take(batch_size * 4), dtype="<u4")
    evaluations = np.frombuffer(cursor.take(batch_size * 4), dtype="<u4")
    compile_times = np.frombuffer(cursor.take(batch_size * 8), dtype="<f8")
    route_s, tune_s, bind_s, lower_s, template_binds, hit = cursor.unpack(
        "<4dIb"
    )
    _finite(
        np.concatenate(
            (fidelities, compile_times, (route_s, tune_s, bind_s, lower_s))
        ),
        "fidelity or time",
    )
    bound = _decode_template_batch(cursor, template, template_resolver)
    if bound.batch_size != batch_size:
        raise SerializationError(
            f"encoded-batch metadata covers {batch_size} samples but the "
            f"bound batch has {bound.batch_size} rows"
        )
    if targets is not None and len(targets) != batch_size:
        raise SerializationError(
            f"targets has {len(targets)} rows for a {batch_size}-sample "
            "record"
        )
    template = bound.template
    encoded = [
        EncodedSample(
            target=None if targets is None else targets[row],
            theta=bound.thetas[row],
            cluster_index=int(clusters[row]),
            ideal_fidelity=float(fidelities[row]),
            transpiled=template._wrap_result(bound.circuit(row)),
            compile_time=float(compile_times[row]),
            optimizer_iterations=int(iterations[row]),
            optimizer_evaluations=int(evaluations[row]),
            ansatz=template.ansatz,
            logical=None,
        )
        for row in range(batch_size)
    ]
    report = PipelineRunReport(
        batch_size=batch_size,
        route_seconds=route_s,
        finetune_seconds=tune_s,
        bind_seconds=bind_s,
        lower_seconds=lower_s,
        template_binds=template_binds,
        template_hit=None if hit < 0 else bool(hit),
    )
    return encoded, report


def load(data: bytes, *, template=None, template_resolver=None):
    """Decode a wire blob produced by any ``dump_*`` function.

    Returns a :class:`BoundCircuitBatch` for template-bound records, a
    :class:`QuantumCircuit` for single gate streams, and a list of
    circuits for gate-stream batches.  Encoded-batch response records
    carry pipeline metadata on top of the circuits and decode through
    :func:`load_encoded_batch` instead.
    """
    cursor = _Cursor(bytes(data))
    kind = _check_header(cursor)
    if kind == KIND_TEMPLATE_BATCH:
        return _decode_template_batch(cursor, template, template_resolver)
    if kind == KIND_GATE_STREAM:
        circuit = _decode_circuit_body(cursor)
        cursor.done()
        return circuit
    if kind == KIND_GATE_STREAM_BATCH:
        (count,) = cursor.unpack("<I")
        circuits = [_decode_circuit_body(cursor) for _ in range(count)]
        cursor.done()
        return circuits
    if kind == KIND_ENCODED_BATCH:
        raise SerializationError(
            "encoded-batch response records decode with "
            "load_encoded_batch() (they return samples + a report, "
            "not bare circuits)"
        )
    raise SerializationError(f"unknown wire record kind {kind}")


def describe(data: bytes) -> dict:
    """Header-level summary of a wire blob (no template required)."""
    cursor = _Cursor(bytes(data))
    kind = _check_header(cursor)
    info = {
        "kind": _KIND_NAMES.get(kind, f"unknown({kind})"),
        "schema_version": WIRE_SCHEMA_VERSION,
        "nbytes": len(cursor.data),
    }
    if kind == KIND_TEMPLATE_BATCH:
        flags, fingerprint, num_qubits, num_rows, num_params = cursor.unpack(
            "<B16sHII"
        )
        info.update(
            fingerprint=fingerprint.hex(),
            num_qubits=num_qubits,
            num_circuits=num_rows,
            num_params=num_params,
            includes_synthesis=bool(flags & _FLAG_SYNTHESIS),
        )
    elif kind == KIND_GATE_STREAM:
        num_qubits, _ = cursor.unpack("<HH")
        info.update(num_qubits=num_qubits, num_circuits=1)
    elif kind == KIND_GATE_STREAM_BATCH:
        (count,) = cursor.unpack("<I")
        info.update(num_circuits=count)
    elif kind == KIND_ENCODED_BATCH:
        (count,) = cursor.unpack("<I")
        # Skip the per-sample metadata block + stage report to reach
        # the embedded template-bound body's own header fields.
        cursor.take(count * (8 + 4 + 4 + 4 + 8))
        cursor.unpack("<4dIb")
        flags, fingerprint, num_qubits, num_rows, num_params = cursor.unpack(
            "<B16sHII"
        )
        info.update(
            fingerprint=fingerprint.hex(),
            num_qubits=num_qubits,
            num_circuits=num_rows,
            num_params=num_params,
            includes_synthesis=bool(flags & _FLAG_SYNTHESIS),
        )
    return info
