"""Circuit interchange: OpenQASM 2/3 text and a compact binary wire format.

This subsystem is how encoded circuits leave the process.  Two
formats, one vocabulary (the full
:data:`repro.quantum.gates.STANDARD_GATES` registry):

* :mod:`repro.io.qasm` — OpenQASM 2 and 3 export/import with
  ``repr``-roundtrip float formatting, so ``from_qasm(to_qasm(c))`` is
  instruction-identical to ``c`` down to the last parameter bit.  For
  handing circuits to external runners (qiskit, PennyLane, simulators)
  and reading theirs back.
* :mod:`repro.io.wire` — a versioned binary format whose template-bound
  record is just ``fingerprint + (B, P) thetas`` (a few hundred bytes
  per circuit, ~25x smaller than shipping the gate list), with an
  explicit gate-stream record as the general fallback.  For
  cross-process transport between services holding the same templates.

``python -m repro.io`` converts between the formats on the command
line; :meth:`repro.service.records.EncodeResponse.to_qasm` /
``to_wire`` and :meth:`repro.service.registry.EncoderRegistry.
rehydrate_wire` are the service-layer entry points.

>>> from repro.io import to_qasm, from_qasm
>>> from repro.quantum.circuit import QuantumCircuit
>>> bell = QuantumCircuit(2).h(0).cx(0, 1)
>>> print(to_qasm(bell), end="")
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
cx q[0], q[1];
>>> len(from_qasm(to_qasm(bell, version=3)))
2
"""

from repro.io.qasm import (
    GATE_SIGNATURES,
    format_float,
    from_qasm,
    load_qasm,
    save_qasm,
    to_qasm,
)
from repro.io.wire import (
    WIRE_GATE_NAMES,
    WIRE_SCHEMA_VERSION,
    describe,
    dump_batch,
    dump_circuit,
    dump_circuits,
    dump_encoded_batch,
    load,
    load_encoded_batch,
)

__all__ = [
    "GATE_SIGNATURES",
    "WIRE_GATE_NAMES",
    "WIRE_SCHEMA_VERSION",
    "describe",
    "dump_batch",
    "dump_circuit",
    "dump_circuits",
    "dump_encoded_batch",
    "format_float",
    "from_qasm",
    "load",
    "load_encoded_batch",
    "load_qasm",
    "save_qasm",
    "to_qasm",
]
